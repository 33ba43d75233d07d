import csv
import math

import numpy as np
import pytest

from dpsgd import metrics
from dpsgd.errors import ShapeError
from dpsgd.metrics import RunRecord


def ctx(sigma=1.0, **kwargs):
    defaults = dict(step=1, epoch=0, lr=0.1, loss=2.0, sigma=sigma)
    defaults.update(kwargs)
    return defaults


def fg(values):
    return np.asarray(values, dtype=np.float64)


class TestRecordStep:
    def test_zero_noise_with_sigma_positive_records_inf(self):
        record = metrics.record_step(fg([1.0, 0.0]), fg([0.0, 0.0]), **ctx(sigma=1.0))
        assert record.snr == math.inf

    def test_equal_vectors_give_unit_snr(self):
        v = [0.3, -0.4, 1.2]
        record = metrics.record_step(fg(v), fg(v), **ctx())
        assert record.snr == pytest.approx(1.0, rel=1e-12)

    def test_matches_norm_and_divide_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        record = metrics.record_step(fg(a), fg(b), **ctx())
        want_grad = math.sqrt(sum(float(x) * float(x) for x in a))
        want_noise = math.sqrt(sum(float(x) * float(x) for x in b))
        assert record.grad_norm == pytest.approx(want_grad, rel=1e-12)
        assert record.noise_norm == pytest.approx(want_noise, rel=1e-12)
        assert record.snr == pytest.approx(want_grad / want_noise, rel=1e-12)

    def test_sigma_zero_leaves_snr_absent(self):
        record = metrics.record_step(fg([1.0]), fg([0.0]), **ctx(sigma=0.0))
        assert record.snr is None

    def test_norms_are_float64_even_for_float32_inputs(self):
        big = np.full(4, 1e20, dtype=np.float32)
        record = metrics.record_step(big, big, **ctx())
        assert math.isfinite(record.grad_norm)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="dimension"):
            metrics.record_step(fg([1.0, 2.0]), fg([1.0]), **ctx())


def make_records(n):
    rng = np.random.default_rng(1)
    out = []
    for i in range(n):
        out.append(
            RunRecord(
                step=i + 1,
                epoch=i // 2,
                lr=0.32,
                loss=float(rng.uniform(0.1, 3.0)),
                accuracy=float(rng.uniform(0, 1)) if i % 2 else None,
                grad_norm=float(rng.uniform(0, 10)),
                noise_norm=float(rng.uniform(0, 10)),
                snr=float(rng.uniform(0, 5)) if i % 3 else None,
                epsilon=float(rng.uniform(0, 8)),
            )
        )
    return out


class TestEmitCsv:
    def test_empty_run_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        metrics.emit_csv([], path)
        content = path.read_bytes()
        assert content == b"step,epoch,lr,loss,accuracy,grad_norm,noise_norm,snr,epsilon\n"

    def test_three_records_make_four_lines(self, tmp_path):
        path = tmp_path / "three.csv"
        metrics.emit_csv(make_records(3), path)
        assert path.read_text(encoding="utf-8").count("\n") == 4

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        metrics.emit_csv(make_records(2), path)
        assert b"\r" not in path.read_bytes()

    def test_round_trip_at_printed_precision(self, tmp_path):
        path = tmp_path / "round.csv"
        records = make_records(5)
        metrics.emit_csv(records, path)
        parsed = metrics.read_csv(path)
        assert len(parsed) == 5
        for original, got in zip(records, parsed):
            assert got.step == original.step and got.epoch == original.epoch
            for name in ("lr", "loss", "grad_norm", "noise_norm", "epsilon"):
                assert getattr(got, name) == pytest.approx(getattr(original, name), rel=1e-8)
            if original.snr is None:
                assert got.snr is None
            else:
                assert got.snr == pytest.approx(original.snr, rel=1e-8)

    def test_infinities_spelled_inf(self, tmp_path):
        record = make_records(1)[0]
        record.snr = math.inf
        record.epsilon = math.inf
        path = tmp_path / "inf.csv"
        metrics.emit_csv([record], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[-1] == "inf" and row[-2] == "inf"

    def test_unwritable_path_is_fatal_with_path_in_message(self, tmp_path):
        bad = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(RuntimeError, match="out.csv"):
            metrics.emit_csv([], bad)

    def test_failed_rewrite_keeps_the_old_bytes_and_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.csv"
        metrics.emit_csv(make_records(3), path)
        old = path.read_bytes()
        writer = csv.writer

        class FailsAfterFirstRow:
            def __init__(self, handle, **kwargs):
                self.rows, self.writer = 0, writer(handle, **kwargs)

            def writerow(self, row):
                if self.rows == 1:
                    raise OSError("no space left on device")
                self.rows += 1
                self.writer.writerow(row)

        monkeypatch.setattr(csv, "writer", FailsAfterFirstRow)
        with pytest.raises(RuntimeError, match="run.csv: no space left"):
            metrics.emit_csv(make_records(5), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_binary_replacement_keeps_the_old_bytes_when_the_body_raises(self, tmp_path):
        path = tmp_path / "params.npz"
        with metrics.replacing(path, binary=True) as handle:
            np.savez(handle, flat=np.arange(3.0))
        old = path.read_bytes()
        with pytest.raises(ValueError, match="interrupted"):
            with metrics.replacing(path, binary=True) as handle:
                handle.write(b"PK")
                raise ValueError("interrupted")
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["params.npz"]

    def test_nine_significant_digits(self):
        assert metrics.format_float(1 / 3) == "0.333333333"
        assert metrics.format_float(123456789.123) == "123456789"


class TestSnrTrends:
    def _mean_snr(self, batch_size, clip_norm, steps=50, seed=17, spread=0.4, lr=0.05):
        from dpsgd import data, engine, models
        from dpsgd.engine import DpConfig, OptimizerState

        spec = models.mlp_spec(16, [12], 4)
        params = models.build_model(spec, seed=seed)
        ds = data.synth_blobs(4, max(batch_size * 2, 64), 16, spread, seed=seed)
        cfg = DpConfig(clip_norm=clip_norm, noise_multiplier=1.0, grad_acc_count=batch_size, seed=seed)
        state = OptimizerState(np.zeros(params.dim, dtype=np.float32), 0.9)
        records = []
        epoch = 0
        while len(records) < steps:
            batches = data.sample_batches(ds, batch_size, seed, epoch)
            params, state, recs = engine.train_epoch(
                spec, params, ds.examples, ds.labels, batches, cfg, lr, state, epoch=epoch,
            )
            records.extend(recs)
            epoch += 1
        return float(np.mean([r.snr for r in records[:steps]]))

    def test_mean_snr_increases_with_batch_size(self):
        low = self._mean_snr(batch_size=8, clip_norm=1.0)
        high = self._mean_snr(batch_size=64, clip_norm=1.0)
        assert high > low

    def test_loose_clipping_lowers_snr_when_gradients_are_small(self):
        # All raw norms < C_low < C_high, parameters frozen (lr=0) so the
        # regime holds throughout: identical signal, noise scaling with C.
        from dpsgd import data, models

        spec = models.mlp_spec(16, [12], 4)
        params = models.build_model(spec, seed=17)
        ds = data.synth_blobs(4, 64, 16, 0.05, seed=17)
        max_norm = max(
            float(np.linalg.norm(models.per_example_gradient(spec, params, x, y)[1].values))
            for x, y in zip(ds.examples, ds.labels)
        )
        assert max_norm < 50.0
        tight = self._mean_snr(batch_size=16, clip_norm=50.0, spread=0.05, lr=0.0)
        loose = self._mean_snr(batch_size=16, clip_norm=500.0, spread=0.05, lr=0.0)
        assert loose < tight

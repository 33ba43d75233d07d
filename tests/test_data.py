import struct

import numpy as np
import pytest

from dpsgd import data
from dpsgd.errors import ConfigurationError, DataFormatError


def write_idx_pair(tmp_path, images, labels):
    """Write a handcrafted IDX image/label fixture and return the paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as handle:
        handle.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        handle.write(images.tobytes())
    with open(labels_path, "wb") as handle:
        handle.write(struct.pack(">II", 0x00000801, n))
        handle.write(labels.tobytes())
    return images_path, labels_path


class TestLoadIdx:
    def test_single_zero_image_round_trips(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [5])
        ds = data.load_idx(images_path, labels_path)
        assert ds.examples.shape == (1, 1, 28, 28)
        assert np.array_equal(ds.examples, np.zeros((1, 1, 28, 28), dtype=np.float32))
        assert ds.labels.tolist() == [5]

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        images = np.full((2, 4, 4), 255)
        images_path, labels_path = write_idx_pair(tmp_path, images, [0, 1])
        ds = data.load_idx(images_path, labels_path)
        assert ds.examples.max() == pytest.approx(1.0)
        assert ds.examples.min() == pytest.approx(1.0)

    def test_file_size_matches_header_arithmetic(self, tmp_path):
        images_path, labels_path = write_idx_pair(
            tmp_path, np.zeros((10, 28, 28)), np.arange(10) % 10
        )
        assert images_path.stat().st_size == 16 + 10 * 784
        assert labels_path.stat().st_size == 8 + 10
        ds = data.load_idx(images_path, labels_path)
        assert ds.size == 10

    def test_wrong_magic_names_expected_and_actual(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        raw = bytearray(images_path.read_bytes())
        raw[3] = 0x99
        images_path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="0x00000803.*0x00000899"):
            data.load_idx(images_path, labels_path)

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((2, 3, 3)), [0, 1])
        raw = images_path.read_bytes()
        images_path.write_bytes(raw[:20])
        with pytest.raises(DataFormatError, match="byte"):
            data.load_idx(images_path, labels_path)

    def test_count_mismatch_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        images_path, _ = write_idx_pair(tmp_path / "a", np.zeros((2, 3, 3)), [0, 1])
        _, labels_path = write_idx_pair(tmp_path / "b", np.zeros((3, 3, 3)), [0, 1, 2])
        with pytest.raises(DataFormatError, match="does not match"):
            data.load_idx(images_path, labels_path)

    def test_loading_twice_is_bit_identical(self, tmp_path):
        images_path, labels_path = write_idx_pair(
            tmp_path, (np.arange(2 * 4 * 4) % 251).reshape(2, 4, 4), [3, 1]
        )
        a = data.load_idx(images_path, labels_path)
        b = data.load_idx(images_path, labels_path)
        assert np.array_equal(a.examples, b.examples)
        assert np.array_equal(a.labels, b.labels)


class TestLabeledCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f0,f1\n0,0.5,1.5\n2,-1.0,3.0\n")
        ds = data.load_labeled_csv(path)
        assert ds.labels.tolist() == [0, 2]
        assert np.allclose(ds.examples, [[0.5, 1.5], [-1.0, 3.0]])

    def test_missing_label_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0\n1,2\n")
        with pytest.raises(DataFormatError, match="label"):
            data.load_labeled_csv(path)

    @pytest.mark.parametrize("row, bad", [("x,1.0,2.0", "'x'"), ("1,1.0,two", "'two'")])
    def test_non_numeric_value_names_path_and_line(self, tmp_path, row, bad):
        path = tmp_path / "words.csv"
        path.write_text(f"label,f0,f1\n0,0.5,1.5\n{row}\n")
        with pytest.raises(DataFormatError) as raised:
            data.load_labeled_csv(path)
        message = str(raised.value)
        assert message.startswith(f"{path}: line 3: ") and message.endswith(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_feature_names_path_and_line(self, tmp_path, value):
        # 1e39 parses but overflows float32 to inf.
        path = tmp_path / "inf.csv"
        path.write_text(f"label,f0,f1\n0,0.5,1.5\n1,2.0,{value}\n")
        with pytest.raises(DataFormatError) as raised:
            data.load_labeled_csv(path)
        assert str(raised.value).startswith(f"{path}: line 3: feature 1 is not finite")

    def test_header_only_file_names_its_source(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,f0,f1\n")
        with pytest.raises(DataFormatError) as raised:
            data.load_labeled_csv(path, "eval")
        assert str(raised.value) == f"csv:{path}, eval split: dataset is empty"

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            data.load_labeled_csv(path)


class TestSynthBlobs:
    def test_zero_spread_collapses_to_class_means(self):
        ds = data.synth_blobs(3, 4, 8, spread=0.0, seed=0)
        for k in range(3):
            block = ds.examples[ds.labels == k]
            assert np.allclose(block, block[0])
        # unit-separated means
        m0 = ds.examples[ds.labels == 0][0]
        m1 = ds.examples[ds.labels == 1][0]
        assert np.linalg.norm(m0 - m1) == pytest.approx(1.0, rel=1e-6)

    def test_same_seed_bit_identical(self):
        a = data.synth_blobs(4, 10, 6, 0.5, seed=9)
        b = data.synth_blobs(4, 10, 6, 0.5, seed=9)
        assert np.array_equal(a.examples, b.examples)
        assert np.array_equal(a.labels, b.labels)

    def test_image_shape_supported(self):
        ds = data.synth_blobs(4, 5, (1, 4, 4), 0.1, seed=2)
        assert ds.examples.shape == (20, 1, 4, 4)

    def test_dimension_below_classes_rejected(self):
        with pytest.raises(ConfigurationError, match="smaller"):
            data.synth_blobs(10, 5, 4, 0.1, seed=0)

    def test_linear_model_separates_tight_blobs(self):
        # A plain softmax-regression model reaches >= 99% on tight blobs
        # within five non-private epochs.
        from dpsgd import engine, models
        from dpsgd.engine import DpConfig, OptimizerState

        ds = data.synth_blobs(2, 500, 8, spread=0.1, seed=3)
        spec = models.mlp_spec(8, [], 2)
        params = models.build_model(spec, seed=3)
        cfg = DpConfig(clip_norm=float("inf"), noise_multiplier=0.0, grad_acc_count=50, seed=3)
        state = OptimizerState(np.zeros(params.dim, dtype=np.float32), 0.9)
        for epoch in range(5):
            batches = data.sample_batches(ds, 50, 3, epoch)
            params, state, recs = engine.train_epoch(
                spec, params, ds.examples, ds.labels, batches, cfg, 0.5, state, epoch=epoch,
            )
        accuracy = models.evaluate_accuracy(spec, params, ds.examples, ds.labels)
        assert accuracy >= 0.99


class TestSampleBatches:
    def test_full_batch_is_a_permutation(self):
        ds = data.synth_blobs(2, 8, 4, 0.1, seed=1)
        batches = data.sample_batches(ds, 16, seed=5, epoch=0)
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(16))

    def test_remainder_dropped(self):
        ds = data.synth_blobs(2, 5, 4, 0.1, seed=1)  # N = 10
        batches = data.sample_batches(ds, 3, seed=5, epoch=0)
        assert len(batches) == 3
        assert sum(len(b) for b in batches) == 9

    def test_no_duplicates_within_epoch(self):
        ds = data.synth_blobs(3, 40, 5, 0.1, seed=2)  # N = 120
        for epoch in range(5):
            batches = data.sample_batches(ds, 7, seed=8, epoch=epoch)
            joined = np.concatenate(batches)
            assert len(set(joined.tolist())) == len(joined) == (120 // 7) * 7

    def test_deterministic_per_seed_and_epoch(self):
        ds = data.synth_blobs(2, 10, 4, 0.1, seed=1)
        a = data.sample_batches(ds, 4, seed=5, epoch=2)
        b = data.sample_batches(ds, 4, seed=5, epoch=2)
        c = data.sample_batches(ds, 4, seed=5, epoch=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_batch_larger_than_dataset_rejected(self):
        ds = data.synth_blobs(2, 3, 4, 0.1, seed=1)
        with pytest.raises(ConfigurationError, match="exceeds"):
            data.sample_batches(ds, 7, seed=0, epoch=0)

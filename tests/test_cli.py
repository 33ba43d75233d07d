import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpsgd
from dpsgd import cli, config as config_mod, experiment, metrics


def base_config(out_dir, extra=""):
    return (
        "model.kind = mlp\n"
        "model.input_shape = 12\n"
        "model.hidden = 8\n"
        "model.classes = 3\n"
        "data.source = synth\n"
        "data.per_class = 40\n"
        "data.spread = 0.2\n"
        "dp.clip_norm = 1.0\n"
        "dp.noise_multiplier = 1.0\n"
        "dp.grad_acc_count = 8\n"
        "optimizer.base_lr = 0.02\n"
        "optimizer.lr_scaling = false\n"
        "train.epochs = 2\n"
        "train.seed = 7\n"
        f"train.output_dir = {out_dir}\n" + extra
    )


def run_fresh_process(*argv):
    """`python -m dpsgd argv` in a fresh process that imports the same tree as this one."""
    source_root = str(Path(dpsgd.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dpsgd", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )


def write_config(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(base_config(tmp_path / "out", extra))
    return path


# A config value that each rule of config._validate rejects, with the keys it needs to reach the rule.
BAD_VALUES = [
    ("model.groups", "0", "model.kind = cnn\nmodel.input_shape = 3,8,8\nmodel.channels = 4\n"),
    ("model.channels", "4,0", "model.kind = cnn\nmodel.input_shape = 3,8,8\nmodel.groups = 2\n"),
    ("model.hidden", "8,0", ""),
    ("model.classes", "0", ""),
    ("optimizer.decay_factor", "nan", "optimizer.decay_epochs = 0\n"),
    ("optimizer.decay_factor", "0", "optimizer.decay_epochs = 0\n"),
    ("data.spread", "nan", ""),
    ("data.spread", "-0.1", ""),
    ("data.eval_per_class", "-1", ""),
    ("dp.clip_norm", "inf", ""),
    ("dp.noise_multiplier", "inf", ""),
    ("optimizer.base_lr", "inf", ""),
    ("data.per_class", "0", ""),
    ("data.seed", "-1", ""),
    ("train.seed", "-1", ""),
    ("train.seed", str(2**64), ""),
    ("train.seed", str(2**64 - 1), "sweep.grad_acc_count = 4,8\n"),
    ("model.input_shape", "0", ""),
    ("model.input_shape", "3,0,8", "model.kind = cnn\nmodel.channels = 4\nmodel.groups = 2\n"),
    ("model.input_shape", "2", ""),
]


class TestRunCommand:
    def test_run_succeeds_and_writes_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "final_accuracy=" in out and "final_epsilon=" in out
        csvs = list((tmp_path / "out").glob("*.csv"))
        blobs = list((tmp_path / "out").glob("*_params.npz"))
        assert len(csvs) == 1 and len(blobs) == 1

    def test_artifacts_confined_to_output_dir(self, tmp_path):
        path = write_config(tmp_path)
        before = set(p for p in tmp_path.rglob("*"))
        cli.main(["run", str(path)])
        created = set(p for p in tmp_path.rglob("*")) - before
        out_root = tmp_path / "out"
        assert created
        assert all(out_root in p.parents or p == out_root for p in created)

    def test_zero_epochs_reports_untrained_accuracy_and_zero_steps(self, tmp_path, capsys):
        path = write_config(tmp_path, extra="", name="zero.cfg")
        text = path.read_text().replace("train.epochs = 2", "train.epochs = 0")
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        accuracy = float(out.split("final_accuracy=")[1].split()[0])
        assert abs(accuracy - 1 / 3) < 0.25
        assert "final_epsilon=0" in out
        csv_path = next((tmp_path / "out").glob("*.csv"))
        assert csv_path.read_text().count("\n") == 1  # header only

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("train.epochs = maybe\ntrain.output_dir = out\n")
        assert cli.main(["run", str(path)]) == 2
        assert "train.epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, extra", BAD_VALUES, ids=[f"{k}={v}" for k, v, _ in BAD_VALUES])
    def test_bad_value_exits_2_naming_its_key(self, tmp_path, capsys, key, value, extra):
        lines = [line for line in base_config(tmp_path / "out").splitlines()
                 if line.split(" = ")[0] not in (key, *(x.split(" = ")[0] for x in extra.splitlines()))]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + f"\n{extra}{key} = {value}\n")
        assert cli.main(["run", str(path)]) == 2
        assert f": {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, extra", [
        ("model.input_shape", "model.kind = cnn\nmodel.input_shape = 3,8\nmodel.channels = 4\nmodel.groups = 2\n"),
        ("dp.grad_acc_count", "data.per_class = 2\ndp.grad_acc_count = 64\n"),
        ("dp.num_stages", "model.hidden = 8\ndp.mode = per_stage\ndp.num_stages = 5\n"),
    ], ids=["cnn_shape", "batch_over_examples", "stages_over_layers"])
    def test_error_found_after_parsing_leaves_no_output_dir(self, tmp_path, capsys, key, extra):
        # A CNN input shape that is not c,h,w; an effective batch above the 6
        # examples; 5 stages for the MLP's 2 layers.
        lines = [line for line in base_config(tmp_path / "out").splitlines()
                 if line.split(" = ")[0] not in (x.split(" = ")[0] for x in extra.splitlines())]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + f"\n{extra}")
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{key}: " in err
        assert key != "model.input_shape" or f"{path}: {key}: " in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_oversized_batch_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, extra="dp.replicas = 1000\n")
        assert cli.main(["run", str(path)]) == 2
        assert "effective batch" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # Config parses but the data file is corrupt: runtime failure.
        garbage = tmp_path / "garbage.idx"
        garbage.write_bytes(b"\x00\x01\x02\x03\x04\x05\x06\x07")
        path = write_config(tmp_path)
        text = path.read_text().replace(
            "data.source = synth",
            f"data.source = idx\ndata.images = {garbage}\ndata.labels = {garbage}",
        )
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("split, label", [("train", 7), ("eval", 9), ("train", -1)])
    def test_label_outside_classes_names_source_split_and_row(self, tmp_path, capsys, split, label):
        # model.classes = 3; row 5 of one CSV carries a label outside [0, 3).
        rng = np.random.default_rng(0)
        paths = {}
        for name, size in (("train", 40), ("eval", 10)):
            labels = [i % 3 for i in range(size)]
            if name == split:
                labels[5] = label
            rows = [f"{y}," + ",".join(f"{v:.4f}" for v in rng.normal(size=12)) for y in labels]
            paths[name] = tmp_path / f"{name}.csv"
            header = "label," + ",".join(f"f{i}" for i in range(12))
            paths[name].write_text("\n".join([header, *rows]) + "\n")
        path = write_config(
            tmp_path, extra=f"data.path = {paths['train']}\ndata.eval_path = {paths['eval']}\n"
        )
        path.write_text(path.read_text().replace("data.source = synth", "data.source = csv"))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"csv:{paths[split]}, {split} split, row 5 (from 0): label {label} is outside [0, 3)" in err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_sigma_zero_with_large_clip_matches_disabled_dp_run(self, tmp_path, capsys):
        dp_off = write_config(tmp_path, extra="dp.enabled = false\n", name="off.cfg")
        degenerate = write_config(
            tmp_path, extra="dp.noise_multiplier = 0.0\ndp.clip_norm = 1e9\n", name="deg.cfg"
        )
        # rewrite noise multiplier line: base_config already set one, so patch
        text = degenerate.read_text().replace("dp.noise_multiplier = 1.0\n", "", 1)
        text = text.replace("dp.clip_norm = 1.0\n", "", 1)
        degenerate.write_text(text)
        assert cli.main(["run", str(dp_off)]) == 0
        off_summary = capsys.readouterr().out
        assert cli.main(["run", str(degenerate)]) == 0
        deg_summary = capsys.readouterr().out
        acc_off = off_summary.split("final_accuracy=")[1].split()[0]
        acc_deg = deg_summary.split("final_accuracy=")[1].split()[0]
        assert acc_off == acc_deg


class TestClippingModesEndToEnd:
    def test_per_stage_mode_through_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            extra="dp.mode = per_stage\ndp.num_stages = 2\ndp.stage_layers = 1,1\n",
        )
        assert cli.main(["run", str(path)]) == 0
        csv_path = next((tmp_path / "out").glob("*.csv"))
        records = metrics.read_csv(csv_path)
        assert all(r.grad_norm <= 8 * 1.0 * (1 + 1e-6) for r in records)

    @pytest.mark.parametrize("extra", [
        "dp.stage_layers = 1,5\n",
        "dp.num_stages = 2\ndp.stage_layers = 1,1\n",
        "dp.mode = per_stage\ndp.num_stages = 2\ndp.stage_layers = 1,1,1\n",
        "dp.mode = per_stage\ndp.num_stages = 2\ndp.stage_layers = 2,0\n",
    ])
    def test_stage_layers_rejected_when_config_is_parsed(self, tmp_path, capsys, monkeypatch, extra):
        # Outside per_stage mode, with a count per stage other than
        # dp.num_stages, or with an empty stage: exit 2 before any data loads.
        loaded = []
        monkeypatch.setattr(config_mod, "build_datasets", loaded.append)
        assert cli.main(["run", str(write_config(tmp_path, extra=extra))]) == 2
        assert "dp.stage_layers" in capsys.readouterr().err and not loaded

    @pytest.mark.parametrize("extra, message", [
        ("dp.num_stages = 2\ndp.stage_layers = 1,2\n", "dp.stage_layers: counts [1, 2] do not partition 2 layers"),
        ("dp.num_stages = 3\n", "dp.num_stages: cannot split 2 layers into 3 stages"),
    ])
    def test_stage_plan_checked_against_the_model(self, tmp_path, capsys, extra, message):
        assert cli.main(["run", str(write_config(tmp_path, extra="dp.mode = per_stage\n" + extra))]) == 2
        assert message in capsys.readouterr().err

    def test_stage_layers_ignored_with_dp_off(self, tmp_path):
        extra = "dp.enabled = false\ndp.mode = per_stage\ndp.num_stages = 2\ndp.stage_layers = 1,1\n"
        assert cli.main(["run", str(write_config(tmp_path, extra=extra))]) == 0

    def test_per_layer_mode_through_config(self, tmp_path):
        path = write_config(tmp_path, extra="dp.mode = per_layer\n")
        assert cli.main(["run", str(path)]) == 0

    def test_replicas_multiply_effective_batch(self, tmp_path, capsys):
        path = write_config(tmp_path, extra="dp.replicas = 2\n")
        assert cli.main(["run", str(path)]) == 0
        csv_path = next((tmp_path / "out").glob("*.csv"))
        records = metrics.read_csv(csv_path)
        # N=120, |B| = 2 * 8 = 16 -> 7 steps per epoch, 2 epochs
        assert len(records) == 14

    def test_batch_noise_placement_through_config(self, tmp_path):
        path = write_config(tmp_path, extra="dp.noise_placement = batch\n")
        assert cli.main(["run", str(path)]) == 0
        csv_path = next((tmp_path / "out").glob("*.csv"))
        records = metrics.read_csv(csv_path)
        assert all(r.noise_norm > 0 for r in records)

    def test_lr_scales_by_accumulation_count_not_replicas(self, tmp_path):
        path = write_config(tmp_path, extra="dp.replicas = 2\n")
        path.write_text(path.read_text().replace("lr_scaling = false", "lr_scaling = true"))
        assert cli.main(["run", str(path)]) == 0
        records = metrics.read_csv(next((tmp_path / "out").glob("*.csv")))
        assert records and all(r.lr == 0.16 for r in records)


class TestDeterminism:
    def test_same_config_twice_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        csv_path = next((tmp_path / "out").glob("*.csv"))
        first = csv_path.read_bytes()
        assert cli.main(["run", str(path)]) == 0
        assert csv_path.read_bytes() == first

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        one = write_config(tmp_path, extra="train.workers = 1\n", name="w1.cfg")
        four = write_config(tmp_path, extra="train.workers = 4\n", name="w4.cfg")
        cli.main(["run", str(one)])
        csv_path = next((tmp_path / "out").glob("*.csv"))
        first = csv_path.read_bytes()
        cli.main(["run", str(four)])
        assert csv_path.read_bytes() == first

    def test_fresh_process_reproduces_bytes(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["run", str(path)])
        csv_path = next((tmp_path / "out").glob("*.csv"))
        first = csv_path.read_bytes()
        proc = run_fresh_process("run", str(path))
        assert proc.returncode == 0, proc.stderr
        assert csv_path.read_bytes() == first


class TestSweepCommand:
    def test_grid_row_count(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            extra="sweep.grad_acc_count = 4,8,16\nsweep.noise_multiplier = 0.5,1.0\n",
        )
        assert cli.main(["sweep", str(path)]) == 0
        frontier = (tmp_path / "out" / "frontier.csv").read_text().splitlines()
        assert frontier[0] == "grad_acc,sigma,clip,best_accuracy,best_epoch,epsilon_at_best,status"
        assert len(frontier) == 1 + 6
        assert all(row.endswith(",ok") for row in frontier[1:])

    def test_single_point_sweep_matches_run_artifacts(self, tmp_path):
        sweep_cfg = write_config(tmp_path, extra="sweep.grad_acc_count = 8\n", name="sweep.cfg")
        run_cfg = write_config(tmp_path, name="single.cfg")
        assert cli.main(["sweep", str(sweep_cfg)]) == 0
        point_csv = next(p for p in (tmp_path / "out").glob("*.csv") if p.name != "frontier.csv")
        sweep_bytes = point_csv.read_bytes()
        assert cli.main(["run", str(run_cfg)]) == 0
        assert point_csv.read_bytes() == sweep_bytes

    def test_failed_point_recorded_and_sweep_continues(self, tmp_path):
        # 1000 exceeds the dataset, 8 works: one failed row, one ok row.
        path = write_config(tmp_path, extra="sweep.grad_acc_count = 1000,8\n")
        assert cli.main(["sweep", str(path)]) == 0
        rows = (tmp_path / "out" / "frontier.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert "failed" in rows[0]
        assert rows[1].endswith(",ok")

    def test_infinite_sigma_point_fails_naming_noise_multiplier(self, tmp_path):
        # The inf point is rejected before it trains, so no numpy warning reaches stderr.
        path = write_config(tmp_path, extra="sweep.noise_multiplier = 1,inf\n")
        proc = run_fresh_process("sweep", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        with open(tmp_path / "out" / "frontier.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows] == ["ok", "failed: noise_multiplier: must be finite and >= 0, got inf"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_status_with_commas_reads_back_as_one_field(self, tmp_path):
        # A rate of 1e30 overflows after the first step; the status names the
        # step, position and layer, with commas, and must stay one CSV field.
        path = tmp_path / "run.cfg"
        path.write_text(
            base_config(tmp_path / "out", "sweep.grad_acc_count = 4,8\n")
            .replace("optimizer.base_lr = 0.02", "optimizer.base_lr = 1e30")
        )
        assert cli.main(["sweep", str(path)]) == 0
        with open(tmp_path / "out" / "frontier.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["grad_acc"] for row in rows] == ["4", "8"]
        for row in rows:
            assert None not in row and list(row) == list(experiment.FRONTIER_FIELDS)
            assert row["status"] == "failed: non-finite gradient at step 1, batch position 0, layer 0 (offset 0, length 104)"
            assert row["best_accuracy"] == row["best_epoch"] == row["epsilon_at_best"] == ""

    def test_grid_point_rerunnable_from_derived_seed(self, tmp_path):
        path = write_config(tmp_path, extra="sweep.grad_acc_count = 4,8\n")
        cfg = config_mod.parse_config(path)
        frontier_path, results = experiment.run_sweep(cfg)
        # Re-run point index 1 (grad_acc=8) standalone from seed base+1.
        point_cfg = cfg.with_overrides(dp__grad_acc_count=8, train__seed=cfg["train.seed"] + 1)
        swept = results[1].csv_path.read_bytes()
        rerun = experiment.run_experiment(point_cfg)
        assert rerun.run_id == results[1].run_id
        assert rerun.csv_path.read_bytes() == swept
        assert rerun.best_accuracy == results[1].best_accuracy
        assert rerun.epsilon_at_best == results[1].epsilon_at_best

    def test_epsilon_in_frontier_matches_accountant(self, tmp_path):
        from dpsgd import accounting

        path = write_config(tmp_path, extra="sweep.grad_acc_count = 8\n")
        cfg = config_mod.parse_config(path)
        _, results = experiment.run_sweep(cfg)
        report = accounting.epsilon_for_training(120, 8, 1.0, 2, 1e-5)
        assert metrics.format_float(results[0].final_epsilon) == metrics.format_float(report.epsilon)


class TestAccountCommand:
    def test_zero_epochs_row(self, capsys):
        assert cli.main([
            "account", "--n", "1000", "--batch", "32", "--sigma", "1.0",
            "--epochs", "0", "--delta", "1e-5",
        ]) == 0
        row = capsys.readouterr().out.strip().split(",")
        assert float(row[0]) == pytest.approx(0.032)
        assert row[1] == "0"
        assert float(row[2]) == 0.0

    def test_columns_echo_ratio_and_steps(self, capsys):
        cli.main([
            "account", "--n", "50000", "--batch", "512", "--sigma", "1.0",
            "--epochs", "3", "--delta", "1e-5",
        ])
        row = capsys.readouterr().out.strip().split(",")
        assert float(row[0]) == pytest.approx(512 / 50000)
        assert int(row[1]) == 3 * (50000 // 512)
        assert float(row[2]) > 0
        assert int(row[3]) >= 2

    def test_doubling_sigma_strictly_shrinks_epsilon(self, capsys):
        def eps(sigma):
            cli.main([
                "account", "--n", "10000", "--batch", "64", "--sigma", str(sigma),
                "--epochs", "5", "--delta", "1e-5",
            ])
            return float(capsys.readouterr().out.strip().split(",")[2])

        assert eps(2.0) < eps(1.0)

    def test_bad_arguments_leave_later_calls_unchanged(self, capsys):
        # Three calls in one process share one parser: a valid query, bad
        # arguments, then the valid query again.
        argv = [
            "account", "--n", "50000", "--batch", "512", "--sigma", "1.0",
            "--epochs", "3", "--delta", "1e-5",
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exited:
            cli.main(["account", "--n", "many", "--sigma", "1.0"])
        assert exited.value.code == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_invalid_parameters_exit_2(self, capsys):
        assert cli.main([
            "account", "--n", "100", "--batch", "200", "--sigma", "1.0",
            "--epochs", "1", "--delta", "1e-5",
        ]) == 2
        assert cli.main([
            "account", "--n", "100", "--batch", "10", "--sigma", "0",
            "--epochs", "1", "--delta", "1e-5",
        ]) == 2
        assert cli.main([
            "account", "--n", "100", "--batch", "10", "--sigma", "1.0",
            "--epochs", "1", "--delta", "2.0",
        ]) == 2
        assert cli.main([
            "account", "--n", "100", "--batch", "0", "--sigma", "1.0",
            "--epochs", "1", "--delta", "1e-5",
        ]) == 2
        assert cli.main([
            "account", "--n", "100", "--batch", "10", "--sigma", "1.0",
            "--epochs", "-1", "--delta", "1e-5",
        ]) == 2
        capsys.readouterr()

    def test_nan_sigma_is_named_as_sigma(self, capsys):
        assert cli.main([
            "account", "--n", "100", "--batch", "10", "--sigma", "nan",
            "--epochs", "1", "--delta", "1e-5",
        ]) == 2
        assert "sigma must be positive, got nan" in capsys.readouterr().err


class TestEpsilonDuringTraining:
    def test_epsilon_column_monotone_nondecreasing(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["run", str(path)])
        csv_path = next((tmp_path / "out").glob("*.csv"))
        records = metrics.read_csv(csv_path)
        values = [r.epsilon for r in records]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] > 0

    def test_per_step_curve_computed_once_per_run(self, tmp_path, monkeypatch):
        from dpsgd import accounting

        calls = []
        per_step_curve = accounting.per_step_curve
        monkeypatch.setattr(
            accounting, "per_step_curve", lambda *args: calls.append(args) or per_step_curve(*args)
        )
        assert cli.main(["run", str(write_config(tmp_path))]) == 0
        assert calls == [(8 / 120, 1.0)]

    def test_epsilon_at_best_prices_the_best_epochs_steps(self, tmp_path, monkeypatch):
        # Three epochs of 15 steps whose evaluations peak at the second: the
        # frontier's epsilon_at_best is the price of 30 steps, the final
        # epsilon that of 45, and every CSV row prints the price of its step.
        from dpsgd import accounting, models

        scores = iter([0.5, 0.9, 0.7])
        monkeypatch.setattr(models, "evaluate_accuracy", lambda *args: next(scores))
        path = write_config(tmp_path, extra="sweep.grad_acc_count = 8\n")
        path.write_text(path.read_text().replace("train.epochs = 2", "train.epochs = 3"))
        frontier, results = experiment.run_sweep(config_mod.parse_config(path))
        step_curve = accounting.per_step_curve(8 / 120, 1.0)
        price = {steps: accounting.epsilon_after(step_curve, steps, 1e-5)[0] for steps in range(1, 46)}
        assert results[0].best_epoch == 1
        assert results[0].epsilon_at_best == price[30] and results[0].final_epsilon == price[45]
        row = frontier.read_text().splitlines()[1].split(",")
        assert row[4:6] == ["1", metrics.format_float(price[30])]
        records = metrics.read_csv(results[0].csv_path)
        assert [(r.step, r.epsilon) for r in records if r.accuracy is not None] == [
            (steps, float(metrics.format_float(price[steps]))) for steps in (15, 30, 45)
        ]
        with open(results[0].csv_path, newline="", encoding="utf-8") as handle:
            printed = [(int(row["step"]), row["epsilon"]) for row in csv.DictReader(handle)]
        assert printed == [(steps, metrics.format_float(price[steps])) for steps in range(1, 46)]

    def test_sigma_zero_with_dp_on_reports_inf_epsilon(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("dp.noise_multiplier = 1.0", "dp.noise_multiplier = 0"))
        assert cli.main(["run", str(path)]) == 0
        assert "final_epsilon=inf " in capsys.readouterr().out
        with open(next((tmp_path / "out").glob("*.csv")), newline="", encoding="utf-8") as handle:
            assert [row["epsilon"] for row in csv.DictReader(handle)] == ["inf"] * 30

    def test_disabled_dp_reports_inf_epsilon(self, tmp_path):
        path = write_config(tmp_path, extra="dp.enabled = false\n")
        cli.main(["run", str(path)])
        csv_path = next((tmp_path / "out").glob("*.csv"))
        records = metrics.read_csv(csv_path)
        assert all(math.isinf(r.epsilon) for r in records)
        assert all(r.snr is None for r in records)

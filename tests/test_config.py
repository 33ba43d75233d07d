import math

import numpy as np
import pytest

from dpsgd import config as config_mod
from dpsgd.errors import ConfigurationError

MINIMAL = """
train.epochs = 1
train.output_dir = out
"""


def parse(text):
    return config_mod.parse_config_text(text, origin="test")


class TestParser:
    def test_minimal_config_fills_defaults(self):
        cfg = parse(MINIMAL)
        assert cfg["model.kind"] == "mlp"
        assert cfg["dp.clip_norm"] == 1.0
        assert cfg["optimizer.momentum"] == 0.9
        assert cfg["sweep.grad_acc_count"] == []

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse("# header\n\ntrain.epochs = 2  # inline\ntrain.output_dir = out\n")
        assert cfg["train.epochs"] == 2

    def test_lists_parse_comma_separated(self):
        cfg = parse(MINIMAL + "sweep.grad_acc_count = 1, 8, 32\nsweep.noise_multiplier = 0.5,1.0\n")
        assert cfg["sweep.grad_acc_count"] == [1, 8, 32]
        assert cfg["sweep.noise_multiplier"] == [0.5, 1.0]

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="dp.clipnorm"):
            parse(MINIMAL + "dp.clipnorm = 1\n")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigurationError, match="train.epochs"):
            parse("train.epochs = soon\ntrain.output_dir = out\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigurationError, match="train.output_dir"):
            parse("train.epochs = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse(MINIMAL + "dp.clip_norm = 1\ndp.clip_norm = 2\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse("train.epochs 1\n")

    def test_invalid_enum_values_rejected(self):
        with pytest.raises(ConfigurationError, match="dp.mode"):
            parse(MINIMAL + "dp.mode = sideways\n")
        with pytest.raises(ConfigurationError, match="data.source"):
            parse(MINIMAL + "data.source = warehouse\n")

    def test_num_stages_checked_at_parse_time(self):
        for enabled in ("true", "false"):
            with pytest.raises(ConfigurationError, match=r"^test: dp\.num_stages: "):
                parse(MINIMAL + f"dp.enabled = {enabled}\ndp.num_stages = 0\n")

    def test_nan_noise_multiplier_rejected_at_parse_time(self):
        for enabled in ("true", "false"):
            with pytest.raises(ConfigurationError, match=r"^test: dp\.noise_multiplier: "):
                parse(MINIMAL + f"dp.enabled = {enabled}\ndp.noise_multiplier = nan\n")

    def test_nan_base_lr_rejected_at_parse_time(self):
        with pytest.raises(ConfigurationError, match=r"^test: optimizer\.base_lr: must be finite and > 0, got nan$"):
            parse(MINIMAL + "optimizer.base_lr = nan\n")

    def test_infinite_clip_norm_parses_only_with_dp_off(self):
        assert parse(MINIMAL + "dp.enabled = false\ndp.clip_norm = inf\n")["dp.clip_norm"] == math.inf
        with pytest.raises(ConfigurationError, match=r"^test: dp\.clip_norm: must be finite"):
            parse(MINIMAL + "dp.clip_norm = inf\n")

    def test_seeds_parse_up_to_the_last_that_keys_its_own_noise(self):
        # The noise keys take train.seed modulo 2**64, and a sweep's point i runs train.seed + i.
        assert parse(MINIMAL + f"train.seed = {2**64 - 1}\ndata.seed = 0\n")["train.seed"] == 2**64 - 1
        sweep = "sweep.noise_multiplier = 1, 2\nsweep.clip_norm = 1, 2, 3\n"
        assert parse(MINIMAL + sweep + f"train.seed = {2**64 - 6}\n")["train.seed"] == 2**64 - 6
        with pytest.raises(ConfigurationError, match=r"^test: train\.seed: must lie in \[0, 2\*\*64 - 6\]"):
            parse(MINIMAL + sweep + f"train.seed = {2**64 - 5}\n")

    def test_synthetic_inputs_below_the_class_count_are_rejected_only_for_synth(self):
        assert parse(MINIMAL + "data.source = csv\ndata.path = x.csv\nmodel.input_shape = 2\n")
        with pytest.raises(ConfigurationError, match=r"^test: model\.input_shape: synthetic data needs at least 10"):
            parse(MINIMAL + "model.input_shape = 3,1,3\n")

    def test_idx_source_requires_paths(self):
        with pytest.raises(ConfigurationError, match="data.images"):
            parse(MINIMAL + "data.source = idx\n")

    def test_totality_on_garbage(self):
        # Arbitrary junk must produce a ConfigurationError, never another crash.
        for text in ("=", "a = b", "dp.clip_norm = \n", "\x00", "train.epochs = 1e9x"):
            with pytest.raises(ConfigurationError):
                parse(text + "\ntrain.epochs = 1\ntrain.output_dir = out\n")


class TestBuilders:
    def test_model_spec_mlp(self):
        cfg = parse(MINIMAL + "model.input_shape = 12\nmodel.hidden = 6,4\nmodel.classes = 3\n")
        spec = config_mod.build_model_spec(cfg)
        assert spec.input_shape == (12,)
        assert spec.num_classes == 3

    def test_model_spec_cnn(self):
        cfg = parse(
            MINIMAL
            + "model.kind = cnn\nmodel.input_shape = 1,8,8\nmodel.channels = 4,4\nmodel.groups = 2\n"
        )
        spec = config_mod.build_model_spec(cfg)
        assert spec.input_shape == (1, 8, 8)

    def test_datasets_synth_deterministic_and_split(self):
        cfg = parse(MINIMAL + "data.per_class = 20\nmodel.input_shape = 16\n")
        train_a, eval_a = config_mod.build_datasets(cfg)
        train_b, eval_b = config_mod.build_datasets(cfg)
        assert np.array_equal(train_a.examples, train_b.examples)
        assert train_a.size == 200
        assert eval_a.split == "eval"
        assert not np.array_equal(train_a.examples[: eval_a.size], eval_a.examples)

    def test_idx_without_eval_files_splits_disjoint_holdout(self, tmp_path):
        from test_data import write_idx_pair

        images_path, labels_path = write_idx_pair(
            tmp_path, (np.arange(20 * 4 * 4) % 251).reshape(20, 4, 4), np.arange(20) % 3
        )
        cfg = parse(
            MINIMAL
            + f"data.source = idx\ndata.images = {images_path}\ndata.labels = {labels_path}\n"
        )
        train, evaluation = config_mod.build_datasets(cfg)
        assert train.size + evaluation.size == 20
        assert evaluation.split == "eval"
        # disjoint: the eval block is not part of the training block
        assert train.size == 18 and evaluation.size == 2

    def test_dp_config_disabled_turns_off_mechanism(self):
        cfg = parse(MINIMAL + "dp.enabled = false\ndp.noise_multiplier = 1.0\n")
        dp_cfg = config_mod.build_dp_config(cfg)
        assert dp_cfg.noise_multiplier == 0.0
        assert np.isinf(dp_cfg.clip_norm)

    def test_dtype_selection(self):
        assert config_mod.dtype_for(parse(MINIMAL)) is np.float32
        assert config_mod.dtype_for(parse(MINIMAL + "train.precision = f64\n")) is np.float64

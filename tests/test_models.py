import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import finite_difference_gradient, max_relative_error, tiny_cnn_spec

from dpsgd import models, ops
from dpsgd.errors import ConfigurationError, PrivacyViolationError, ShapeError


class TestBuildModel:
    def test_mlp_parameter_count(self):
        spec = models.mlp_spec(784, [128], 10)
        params = models.build_model(spec, seed=0)
        assert params.dim == 784 * 128 + 128 + 128 * 10 + 10 == 101770

    def test_same_seed_bitwise_identical(self):
        spec = models.mlp_spec(20, [8], 4)
        a = models.build_model(spec, seed=42)
        b = models.build_model(spec, seed=42)
        assert np.array_equal(a.flat, b.flat)

    def test_different_seed_differs(self):
        spec = models.mlp_spec(20, [8], 4)
        a = models.build_model(spec, seed=1)
        b = models.build_model(spec, seed=2)
        assert not np.array_equal(a.flat, b.flat)

    def test_batch_norm_rejected(self):
        spec = models.ModelSpec(
            (models.LayerSpec("linear", out_features=4), models.LayerSpec("batch_norm")),
            (4,),
            4,
        )
        with pytest.raises(PrivacyViolationError, match="batch normalization"):
            models.build_model(spec, seed=0)

    def test_biases_zero_and_gamma_one(self):
        spec = tiny_cnn_spec()
        params = models.build_model(spec, seed=3)
        views = params.views(params.layout_for(1))
        assert np.array_equal(views["gamma"], np.ones(4, dtype=np.float32))
        assert np.array_equal(views["beta"], np.zeros(4, dtype=np.float32))

    def test_flat_dim_matches_extent_sum(self):
        for spec in (models.mlp_spec(30, [16, 8], 5), tiny_cnn_spec(), models.mlp_spec(9, [], 3)):
            params = models.build_model(spec, seed=0)
            assert sum(length for _, length in params.layer_extents) == params.dim

    def test_shape_mismatch_in_spec_rejected(self):
        spec = models.ModelSpec((models.LayerSpec("linear", out_features=4),), (3, 4, 4), 4)
        with pytest.raises(ShapeError, match="layer 0: "):
            models.build_model(spec, seed=0)

    @pytest.mark.parametrize(
        "tail, error",
        [
            ((models.LayerSpec("dropout"),), ConfigurationError),
            ((models.LayerSpec("group_norm", groups=3),), ConfigurationError),
            ((models.LayerSpec("max_pool", size=3),), ConfigurationError),
            ((models.LayerSpec("flatten"), models.LayerSpec("max_pool", size=2)), ShapeError),
        ],
        ids=["unknown_kind", "groups_do_not_divide", "pool_does_not_divide", "max_pool_after_flatten"],
    )
    def test_spec_errors_name_the_layer(self, tail, error):
        # conv maps (2, 4, 4) to (4, 4, 4); the last layer of the tail is at fault.
        spec = models.ModelSpec((models.LayerSpec("conv2d", out_channels=4),) + tail, (2, 4, 4), 3)
        with pytest.raises(error, match=f"^layer {len(tail)}: "):
            models.build_model(spec, seed=0)


class TestPerExampleGradient:
    def test_zero_head_gives_uniform_softmax_loss(self):
        spec = models.mlp_spec(12, [6], 10)
        params = models.build_model(spec, seed=0)
        head = params.layouts[-1]
        params.flat[head.offset : head.offset + head.length] = 0.0
        x = np.random.default_rng(0).standard_normal(12).astype(np.float32)
        loss, _ = models.per_example_gradient(spec, params, x, 7)
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_label_out_of_range_rejected(self):
        spec = models.mlp_spec(4, [], 3)
        params = models.build_model(spec, seed=0)
        with pytest.raises(ValueError, match="label"):
            models.per_example_gradient(spec, params, np.zeros(4, dtype=np.float32), 3)

    def test_gradient_dim_equals_param_dim(self):
        for spec in (models.mlp_spec(10, [7], 4), tiny_cnn_spec()):
            params = models.build_model(spec, seed=1)
            x = np.random.default_rng(1).standard_normal(spec.input_shape).astype(np.float32)
            _, grad = models.per_example_gradient(spec, params, x, 0)
            assert grad.dim == params.dim
            assert grad.layer_extents == params.layer_extents

    def test_repeated_calls_bitwise_identical(self):
        spec = tiny_cnn_spec()
        params = models.build_model(spec, seed=2)
        x = np.random.default_rng(2).standard_normal(spec.input_shape).astype(np.float32)
        loss_a, grad_a = models.per_example_gradient(spec, params, x, 1)
        loss_b, grad_b = models.per_example_gradient(spec, params, x, 1)
        assert loss_a == loss_b
        assert np.array_equal(grad_a.values, grad_b.values)

    def test_gradient_independent_of_batch_context(self):
        # Gradients computed alone vs inside a shuffled loop are identical.
        spec = models.mlp_spec(8, [5], 3)
        params = models.build_model(spec, seed=3)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((6, 8)).astype(np.float32)
        ys = rng.integers(0, 3, size=6)
        alone = [models.per_example_gradient(spec, params, x, y)[1].values for x, y in zip(xs, ys)]
        order = rng.permutation(6)
        shuffled = {}
        for idx in order:
            shuffled[int(idx)] = models.per_example_gradient(spec, params, xs[idx], ys[idx])[1].values
        for i in range(6):
            assert np.array_equal(alone[i], shuffled[i])

    @pytest.mark.parametrize("which", ["mlp", "cnn"])
    def test_matches_finite_differences(self, which):
        spec = models.mlp_spec(6, [5], 3) if which == "mlp" else tiny_cnn_spec()
        params = models.build_model(spec, seed=4, dtype=np.float64)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(spec.input_shape)
        label = 1
        _, grad = models.per_example_gradient(spec, params, x, label)

        def objective():
            return models.per_example_gradient(spec, params, x, label)[0]

        fd = finite_difference_gradient(objective, params.flat)
        assert max_relative_error(grad.values, fd) < 1e-4


def test_group_norm_model_isolation_across_examples():
    # Changing a different example never changes this example's gradient.
    spec = tiny_cnn_spec()
    params = models.build_model(spec, seed=5)
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
    before = models.per_example_gradient(spec, params, xs[0], 2)[1].values
    xs[1] *= 1000.0
    after = models.per_example_gradient(spec, params, xs[0], 2)[1].values
    assert np.array_equal(before, after)


class CountingNumpy:
    """numpy with a call count on matmul, to stand in for ops.np."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("which", ["mlp", "cnn"])
def test_first_layer_builds_no_input_gradient(which, monkeypatch):
    spec = models.mlp_spec(6, [5], 3) if which == "mlp" else tiny_cnn_spec()
    params = models.build_model(spec, seed=9)
    rng = np.random.default_rng(9)
    examples = rng.standard_normal((4, *spec.input_shape)).astype(np.float32)
    labels = rng.integers(0, 3, size=4)
    counting = CountingNumpy()
    monkeypatch.setattr(ops, "np", counting)
    backward_layer = ops.backward_layer
    calls = []
    build_every_input_gradient = False

    def recording(tape, upstream, input_grad=True):
        before = counting.matmuls
        d_x, grads = backward_layer(tape, upstream, input_grad or build_every_input_gradient)
        calls.append((tape.kind, input_grad, d_x is None, counting.matmuls - before))
        return d_x, grads

    monkeypatch.setattr(ops, "backward_layer", recording)
    losses, grads = models.example_gradients(spec, params, examples, labels)
    first_kind = spec.layers[0].kind
    # Layer 0 runs last and builds no input gradient: a conv runs only its
    # kernel-gradient matmul, not the patch-gradient one.
    assert calls[-1] == (first_kind, False, True, 1 if first_kind == "conv2d" else 0)
    assert all(input_grad and not no_d_x for _, input_grad, no_d_x, _ in calls[:-1])
    assert all(n == 2 for kind, _, _, n in calls[:-1] if kind == "conv2d")

    build_every_input_gradient = True
    calls.clear()
    losses_built, grads_built = models.example_gradients(spec, params, examples, labels)
    assert calls[-1][2] is False  # this time layer 0's input gradient was built
    assert np.array_equal(losses, losses_built)
    ones = np.ones(len(labels), dtype=np.float32)
    for layer, layer_built in zip(grads, grads_built):
        assert np.array_equal(layer.sq_norms(), layer_built.sq_norms())
        for got, want in zip(layer.weighted_sum(ones), layer_built.weighted_sum(ones)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, dtype, chunk", [
    ("mlp", np.float32, 2404), ("mlp", np.float64, 1248), ("cnn", np.float32, 1), ("cnn", np.float64, 1),
])
def test_benchmark_models_keep_their_chunk_size(kind, dtype, chunk):
    # The benchmark's MLP 64-64-10 and CNN 3x32x32 (32, 32, 64, 64): a change
    # to what a tape keeps must not move how many examples a chunk holds.
    spec = models.mlp_spec(64, [64], 10) if kind == "mlp" else models.cnn_spec((3, 32, 32), (32, 32, 64, 64), 32, 10)
    assert models.chunk_size(models.build_model(spec, seed=0, dtype=dtype)) == chunk


def test_evaluate_accuracy_counts_argmax_matches():
    spec = models.mlp_spec(4, [], 2)
    params = models.build_model(spec, seed=6)
    views = params.views(params.layout_for(0))
    views["weight"][:] = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float32)
    views["bias"][:] = 0
    examples = np.array([[3, 0, 0, 0], [0, 3, 0, 0], [3, 0, 0, 0]], dtype=np.float32)
    labels = np.array([0, 1, 1])
    assert models.evaluate_accuracy(spec, params, examples, labels) == pytest.approx(2 / 3)


@pytest.mark.parametrize("which", ["mlp", "cnn"])
def test_batched_evaluation_equals_per_example_argmax_count(which, monkeypatch):
    spec = models.mlp_spec(6, [5], 3) if which == "mlp" else tiny_cnn_spec()
    params = models.build_model(spec, seed=8)
    rng = np.random.default_rng(8)
    examples = rng.standard_normal((20, *spec.input_shape)).astype(np.float32)
    labels = rng.integers(0, 3, size=20)
    count = sum(int(np.argmax(models.forward_logits(spec, params, x))) == y for x, y in zip(examples, labels))
    assert 0 < count < 20
    for chunk in (1, 7, 20):
        monkeypatch.setattr(models, "CHUNK_BYTES", chunk * params.example_bytes)
        assert models.chunk_size(params) == chunk
        assert models.evaluate_accuracy(spec, params, examples, labels) == count / 20


def test_evaluation_forwards_at_most_eval_rows_and_counts_as_one_forward(monkeypatch):
    # The benchmark MLP's 400 evaluation rows: one 400-row forward and 32-row
    # forwards count the same matches, and no forward sees more than 32 rows.
    spec = models.mlp_spec(64, [64], 10)
    params = models.build_model(spec, seed=3)
    rng = np.random.default_rng(3)
    examples = rng.standard_normal((400, 64)).astype(np.float32)
    labels = rng.integers(0, 10, size=400)
    sizes = []
    forward = models._forward

    def spy(spec, params, rows):
        sizes.append(len(rows))
        return forward(spec, params, rows)

    monkeypatch.setattr(models, "_forward", spy)
    chunked = models.evaluate_accuracy(spec, params, examples, labels)
    assert models.EVAL_ROWS == 32 and max(sizes) == 32 and sum(sizes) == 400
    sizes.clear()
    monkeypatch.setattr(models, "EVAL_ROWS", 400)
    whole = models.evaluate_accuracy(spec, params, examples, labels)
    assert sizes == [400]
    assert 0 < whole == chunked < 1


def test_traced_functions_exist_and_see_every_layer_call(monkeypatch):
    # The benchmark's tracer replaces the functions it names by setattr on
    # their module, and its untraced step clock replaces engine.train_epoch and
    # engine.sgd_step. Every name must exist, and the layer table must reach
    # ops through the module, or traced runs would count no layer calls.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "worker.py"
    loader = importlib.util.spec_from_file_location("benchmark_worker", path)
    worker = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(worker)
    for module_name, functions in [*worker.TRACED.items(), ("engine", ("train_epoch", "sgd_step"))]:
        module = importlib.import_module(f"dpsgd.{module_name}")
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"

    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[f"{name}.{args[0].kind}" if name == "backward_layer" else name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("conv2d_forward", "group_norm_forward", "backward_layer"):
        monkeypatch.setattr(ops, name, counting(name, getattr(ops, name)))
    spec = tiny_cnn_spec()
    kinds = Counter(layer.kind for layer in spec.layers)
    forwards = Counter(conv2d_forward=kinds["conv2d"], group_norm_forward=kinds["group_norm"])
    params = models.build_model(spec, seed=7)
    assert calls == forwards  # the shape pass runs each forward once
    calls.clear()
    x = np.random.default_rng(7).standard_normal(spec.input_shape).astype(np.float32)
    models.per_example_gradient(spec, params, x, 0)
    assert calls == forwards + Counter({f"backward_layer.{kind}": n for kind, n in kinds.items()})

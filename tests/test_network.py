import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopower import network
from evopower.errors import EvaluationError, TrainingDivergedError
from evopower.genome import GenomeConfig, LayerSpec, PhenotypeSpec, init_individual, to_phenotype
from evopower.grammar import load_packaged_grammar
from evopower.network import (
    Network,
    _Dense,
    _Dropout,
    _gradients,
    _init_dense,
    _sigmoid,
    _train_batch,
    build,
    count_macs,
    cross_entropy,
    evaluate_accuracy,
    load_weights,
    save_weights,
    split,
    train,
)

from gradcheck import finite_difference_check, float64_copy, joint_loss

GRAMMAR = load_packaged_grammar("default")


def dense_spec(units, aux_index=0, lr=0.05, batch=16, activation="relu"):
    layers = tuple(LayerSpec("dense", units=u, activation=activation) for u in units)
    return PhenotypeSpec(layers, aux_index, lr, batch)


def two_blobs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(n // 2, 2)) + [0.0, 0.0]
    b = rng.normal(0.0, 0.3, size=(n // 2, 2)) + [3.0, 3.0]
    x = np.vstack([a, b])
    y = np.repeat([0, 1], n // 2)
    return x, y


def test_build_wiring_and_softmax_normalization():
    net = build(dense_spec([32, 16]), input_dim=12, class_count=10, rng=np.random.default_rng(0))
    assert net.aux_head.fan_in == 32  # taps layer 0
    assert net.main_head.fan_in == 16
    assert net.main_head.fan_out == net.aux_head.fan_out == 10
    x = np.random.default_rng(1).normal(size=(50, 12))
    main, aux = net.forward(x)
    assert np.allclose(main.sum(axis=1), 1.0, atol=1e-6)
    assert np.allclose(aux.sum(axis=1), 1.0, atol=1e-6)
    assert (main >= 0).all() and (aux >= 0).all()


def test_build_tap_skips_dropout_layers():
    spec = PhenotypeSpec(
        (
            LayerSpec("dense", units=8, activation="relu"),
            LayerSpec("dropout", rate=0.4),
            LayerSpec("dense", units=6, activation="relu"),
        ),
        aux_index=0,
        learning_rate=0.1,
        batch_size=8,
    )
    net = build(spec, input_dim=4, class_count=3, rng=np.random.default_rng(2))
    assert net.aux_tap == 0  # the dense layer itself, not the dropout after it
    assert net.aux_head.fan_in == 8


def test_weight_init_bounds_and_zero_bias():
    rng = np.random.default_rng(5)
    net = build(dense_spec([64, 32]), input_dim=100, class_count=10, rng=rng)
    for layer in net.dense_layers():
        s = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        assert np.abs(layer.w).max() <= s
        assert np.all(layer.b == 0.0)


def test_train_reduces_loss_on_separable_task():
    x, y = two_blobs()
    net = build(dense_spec([8, 8], lr=0.5), input_dim=2, class_count=2, rng=np.random.default_rng(3))
    initial = joint_loss(net, x, y)
    report = train(net, x, y, budget_epochs=30, learning_rate=0.5, batch_size=16,
                   rng=np.random.default_rng(4))
    assert report.epochs_run == 30
    assert len(report.history) == 30
    assert report.final_loss < initial
    assert report.history[-1] == report.final_loss


def test_train_rejects_zero_budget():
    x, y = two_blobs()
    net = build(dense_spec([4, 4]), input_dim=2, class_count=2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        train(net, x, y, budget_epochs=0, learning_rate=0.1, batch_size=8,
              rng=np.random.default_rng(0))


def test_zero_learning_rate_freezes_loss():
    x, y = two_blobs()
    net = build(dense_spec([8, 8]), input_dim=2, class_count=2, rng=np.random.default_rng(6))
    report = train(net, x, y, budget_epochs=5, learning_rate=0.0, batch_size=13,
                   rng=np.random.default_rng(7))
    assert max(report.history) - min(report.history) < 1e-12


def test_training_divergence_detected():
    x, y = two_blobs()
    net = build(dense_spec([4, 4]), input_dim=2, class_count=2, rng=np.random.default_rng(8))
    net.layers[0].w[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
        train(net, x, y, budget_epochs=1, learning_rate=0.1, batch_size=8,
              rng=np.random.default_rng(9))


def test_split_partitions_match_full_model_exactly():
    rng = np.random.default_rng(10)
    for seed in range(100):
        ind = init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(seed))
        spec = to_phenotype(ind, GRAMMAR)
        net = build(spec, input_dim=9, class_count=5, rng=np.random.default_rng(seed + 1))
        left, right = split(net)
        x = rng.normal(size=(10, 9))
        main, aux = net.forward(x)
        assert np.array_equal(left.forward(x)[0], main)
        assert np.array_equal(right.forward(x)[0], aux)


def test_split_right_partition_depth():
    for aux_index in (0, 1, 2):
        net = build(dense_spec([16, 16, 16, 16], aux_index=aux_index),
                    input_dim=6, class_count=4, rng=np.random.default_rng(11))
        _, right = split(net)
        assert len(right.dense_layers()) == aux_index + 2  # prefix + head


def test_split_partitions_are_independent_copies():
    net = build(dense_spec([8, 8]), input_dim=3, class_count=3, rng=np.random.default_rng(12))
    left, right = split(net)
    x = np.random.default_rng(13).normal(size=(5, 3))
    before = right.forward(x)[0].copy()
    left.layers[0].w[:] = 0.0
    net.layers[0].w[:] = 0.0
    assert np.array_equal(right.forward(x)[0], before)


def test_split_requires_two_output_network():
    net = build(dense_spec([8, 8]), input_dim=3, class_count=3, rng=np.random.default_rng(14))
    left, _ = split(net)
    with pytest.raises(EvaluationError):
        split(left)


def test_accuracy_perfect_and_chance():
    net = build(dense_spec([16, 16]), input_dim=20, class_count=10, rng=np.random.default_rng(15))
    x = np.random.default_rng(16).normal(size=(1000, 20))
    main, aux = net.forward(x)
    assert evaluate_accuracy(net, x, main.argmax(axis=1))[0] == 1.0
    assert evaluate_accuracy(net, x, aux.argmax(axis=1))[1] == 1.0

    shuffled = np.random.default_rng(17).integers(0, 10, size=1000)
    acc, acc_aux = evaluate_accuracy(net, x, shuffled)
    assert abs(acc - 0.10) < 0.03
    assert abs(acc_aux - 0.10) < 0.03


def test_unsplit_accuracy_equals_partition_accuracies():
    x = np.random.default_rng(33).normal(size=(200, 9))
    y = np.random.default_rng(34).integers(0, 5, size=200)
    for seed in range(40):
        ind = init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(seed))
        net = build(to_phenotype(ind, GRAMMAR), input_dim=9, class_count=5,
                    rng=np.random.default_rng(seed + 1))
        left, right = split(net)
        acc_left, none_left = evaluate_accuracy(left, x, y)
        acc_right, none_right = evaluate_accuracy(right, x, y)
        assert none_left is None and none_right is None
        assert evaluate_accuracy(net, x, y) == (acc_left, acc_right)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 20_000), data=st.data())
def test_accuracy_is_the_exact_fraction_of_correct_answers(n, data):
    # a journal row keeps each head's count of correct answers, and replay
    # divides it by the validation size: the live score must be that quotient
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    net = build(dense_spec([4, 4]), input_dim=3, class_count=3, rng=rng)
    x = rng.normal(size=(n, 3)).astype(np.float32)
    main, aux = net.forward(x)
    pred = main.argmax(axis=1)
    right = rng.permutation(n) < k  # k right answers, at random places
    y = np.where(right, pred, (pred + 1) % 3)
    acc_main, acc_aux = evaluate_accuracy(net, x, y)
    assert acc_main == k / n
    assert acc_aux == np.count_nonzero(aux.argmax(axis=1) == y) / n


def test_accuracy_rejects_empty_data():
    net = build(dense_spec([4, 4]), input_dim=2, class_count=2, rng=np.random.default_rng(18))
    with pytest.raises(EvaluationError):
        evaluate_accuracy(net, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_loss_additivity():
    net = build(dense_spec([8, 8]), input_dim=4, class_count=3, rng=np.random.default_rng(19))
    x = np.random.default_rng(20).normal(size=(40, 4))
    y = np.random.default_rng(21).integers(0, 3, size=40)
    main, aux = net.forward(x)
    assert abs(joint_loss(net, x, y) - (cross_entropy(main, y) + cross_entropy(aux, y))) < 1e-12


def min_abs_preactivation(net, x):
    # central differences are invalid within epsilon of a relu kink
    out = x
    worst = np.inf
    for layer in net.layers:
        z = out @ layer.w + layer.b
        if layer.activation == "relu":
            worst = min(worst, float(np.abs(z).min()))
        out = np.maximum(z, 0.0) if layer.activation == "relu" else 1.0 / (1.0 + np.exp(-z))
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    checked = 0
    attempt = 0
    while checked < 20:
        attempt += 1
        units = [int(rng.integers(3, 8)) for _ in range(int(rng.integers(2, 4)))]
        act = "relu" if checked % 2 == 0 else "sigmoid"
        aux = int(rng.integers(0, len(units) - 1))
        net = build(dense_spec(units, aux_index=aux, activation=act),
                    input_dim=5, class_count=3, rng=np.random.default_rng(100 + attempt))
        x = np.random.default_rng(200 + attempt).normal(size=(7, 5))
        y = np.random.default_rng(300 + attempt).integers(0, 3, size=7)
        if act == "relu" and min_abs_preactivation(net, x) < 1e-3:
            continue  # kink within perturbation reach, resample
        assert finite_difference_check(net, x, y, epsilon=1e-5) < 1e-5
        checked += 1


def test_gradient_check_with_dropout_is_deterministic():
    spec = PhenotypeSpec(
        (
            LayerSpec("dense", units=6, activation="sigmoid"),
            LayerSpec("dropout", rate=0.5),
            LayerSpec("dense", units=5, activation="relu"),
        ),
        aux_index=0,
        learning_rate=0.1,
        batch_size=8,
    )
    net = build(spec, input_dim=4, class_count=3, rng=np.random.default_rng(23))
    x = np.random.default_rng(24).normal(size=(6, 4))
    y = np.random.default_rng(25).integers(0, 3, size=6)
    a = finite_difference_check(net, x, y)
    b = finite_difference_check(net, x, y)
    assert a == b and a < 1e-5


def test_gradient_check_zero_weight_net():
    net = build(dense_spec([4, 4]), input_dim=3, class_count=2, rng=np.random.default_rng(26))
    for layer in net.dense_layers():
        layer.w[:] = 0.0
    x = np.random.default_rng(27).normal(size=(5, 3))
    y = np.random.default_rng(28).integers(0, 2, size=5)
    err = finite_difference_check(net, x, y)
    assert np.isfinite(err)


def test_count_macs_reference_values():
    net = build(dense_spec([128, 128, 128], aux_index=0), input_dim=784, class_count=10,
                rng=np.random.default_rng(29))
    left, right = split(net)
    assert count_macs(left) == 784 * 128 + 128 * 128 + 128 * 128 + 128 * 10  # 134400
    assert count_macs(right) == 784 * 128 + 128 * 10
    assert count_macs(net) == count_macs(left) + 128 * 10


def test_weight_dump_round_trip(tmp_path):
    net = build(dense_spec([8, 8]), input_dim=5, class_count=3, rng=np.random.default_rng(30))
    path = tmp_path / "weights.bin"
    save_weights(net, path)
    arrays = load_weights(path)
    expected = []
    for layer in net.dense_layers():
        expected.extend((layer.w, layer.b))
    assert len(arrays) == len(expected) == 8  # 2 hidden + 2 heads, (W, b) each
    for got, want in zip(arrays, expected):
        assert got.dtype == np.float32
        assert np.array_equal(got, want.astype(np.float32))
        assert same_bits(got, want)  # the network computes in float32: the dump is exact
    raw = path.read_bytes()
    assert int.from_bytes(raw[:4], "little") == 8


def test_forward_batch_invariance():
    # row-wise results do not depend on which other rows are in the batch
    net = build(dense_spec([8, 8]), input_dim=3, class_count=4, rng=np.random.default_rng(31))
    x = np.random.default_rng(32).normal(size=(10, 3))
    full, _ = net.forward(x)
    one, _ = net.forward(x[3:4])
    assert np.allclose(full[3], one[0], atol=1e-12)


def reference_sigmoid(z):
    """Reference: the tanh form of the sigmoid, evaluated out of place."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def exact_sigmoid(z):
    """The sigmoid in extended precision, from the side where exp cannot overflow."""
    z = z.astype(np.longdouble)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(f"i{a.itemsize}"), b.view(f"i{b.itemsize}")))


# desk hidden widths 16..256 and the IDX width 128, at several batch sizes
SIGMOID_SHAPES = [(32, 16), (16, 64), (128, 256), (50, 128), (1875, 128)]
SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
                 1e-300, -1e-300, 5e-324, -5e-324, 36.75, -36.75, 709.8, -709.8]


# where float32 exp overflows (above 88.7) and underflows (below about
# -104); the float64-only tiny values round to zero
FLOAT32_SIGMOID_EDGES = SIGMOID_EDGES + [88.7, -88.7, 103.9, -103.9, 1e-45, -1e-45]


@pytest.mark.parametrize("shape", SIGMOID_SHAPES)
def test_sigmoid_bit_equal_to_two_formula_reference(shape):
    z = np.random.default_rng(shape[0] * shape[1]).normal(0.0, 4.0, size=shape)
    before = z.copy()
    assert same_bits(_sigmoid(z), reference_sigmoid(z))
    assert same_bits(z, before)  # without ``out`` the input is left alone


def test_sigmoid_bit_equal_on_edge_values():
    z = np.array(SIGMOID_EDGES)
    assert same_bits(_sigmoid(z), reference_sigmoid(z))
    # a nan input has already diverged; it stays nan
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


@pytest.mark.parametrize("shape", SIGMOID_SHAPES)
def test_float32_sigmoid_bit_equal_to_two_formula_reference(shape):
    z = np.random.default_rng(shape[0] * shape[1]).normal(0.0, 4.0, size=shape).astype(np.float32)
    assert same_bits(_sigmoid(z), reference_sigmoid(z))


def test_float32_sigmoid_bit_equal_on_edge_values():
    z = np.array(FLOAT32_SIGMOID_EDGES, dtype=np.float32)
    assert same_bits(_sigmoid(z), reference_sigmoid(z))


# one ulp of 1.0: the sigmoid's values lie in [0, 1]
@pytest.mark.parametrize("dtype, bound", [(np.float32, 2.0**-23), (np.float64, 2.0**-52)])
def test_sigmoid_is_within_one_ulp_of_one_of_the_exact_sigmoid(dtype, bound):
    edges = FLOAT32_SIGMOID_EDGES if dtype == np.float32 else SIGMOID_EDGES
    inputs = [np.array(edges, dtype=dtype)] + [
        np.random.default_rng(shape[0] * shape[1]).normal(0.0, 4.0, size=shape).astype(dtype)
        for shape in SIGMOID_SHAPES
    ]
    for z in inputs:
        # no overflow, invalid operation or division; halving a subnormal
        # input underflows by design and still yields exactly 0.5
        with np.errstate(all="raise", under="ignore"):
            got = _sigmoid(z)
            out = np.empty_like(z)
            assert _sigmoid(z, out=out) is out and same_bits(out, got)
        assert got.dtype == dtype
        assert np.abs(got.astype(np.longdouble) - exact_sigmoid(z)).max() <= bound
    with np.errstate(all="raise"):
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan], dtype=dtype))).all()


def head_dz(probs, y, scale):
    onehot = np.zeros_like(probs)
    onehot[np.arange(y.shape[0]), y] = 1.0
    return (probs - onehot) * (scale / y.shape[0])


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_backward_from_cached_activation_matches_recompute(activation):
    # ``layer`` reads a recorded input; its input gradient dx reaches the
    # relu layer in front of it, whose step then carries dx's bits
    rng = np.random.default_rng(41)
    front = _init_dense(16, 16, "relu", rng)
    layer = _init_dense(16, 32, activation, rng)
    net = Network([front, layer], _init_dense(32, 3, "softmax", rng),
                  _init_dense(16, 3, "softmax", rng), 0, 16, 3)
    x = rng.normal(0.0, 3.0, size=(64, 16))
    y = rng.integers(0, 3, size=64)
    tape = []
    main, aux = net.forward(x, tape=tape)
    net.forward(rng.normal(size=(5, 16)))  # inference leaves the tape alone
    g = head_dz(main, y, 0.5) @ net.main_head.w.T
    d_tap = head_dz(aux, y, 0.5) @ net.aux_head.w.T
    steps = {id(l): (dw, db) for l, dw, db in _gradients(net, tape, main, aux, y, 0.5)}

    h = tape[0][1]
    z = h @ layer.w + layer.b
    if activation == "relu":
        dz = g * (z > 0)
    else:
        a = reference_sigmoid(z)
        dz = g * a * (1.0 - a)
    dx = dz @ layer.w.T
    dw, db = steps[id(layer)]
    assert same_bits(dw, h.T @ dz)
    assert same_bits(db, dz.sum(axis=0))
    front_dz = (dx + d_tap) * (h > 0)
    assert same_bits(steps[id(front)][0], x.T @ front_dz)


# --- the training step written out of place, kept as the reference:
# in-place activations, activation gradients and steps, and a backward
# pass that stops at the first dense layer, must leave every weight
# bit-equal


def reference_activation(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "sigmoid":
        return reference_sigmoid(z)
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def reference_train_batch(net, x, y, lr, rng):
    inputs, outputs, masks = {}, {}, {}
    out, tap = x, None
    for i, layer in enumerate(net.layers):
        if isinstance(layer, _Dense):
            inputs[i] = out
            out = outputs[i] = reference_activation(out @ layer.w + layer.b, layer.activation)
        elif layer.rate == 0.0:
            masks[i] = None
        else:
            masks[i] = ((rng.random(out.shape) >= layer.rate) / (1.0 - layer.rate)).astype(out.dtype)
            out = out * masks[i]
        if i == net.aux_tap:
            tap = out
    main = reference_activation(out @ net.main_head.w + net.main_head.b, "softmax")
    aux = reference_activation(tap @ net.aux_head.w + net.aux_head.b, "softmax")
    loss = cross_entropy(main, y) + cross_entropy(aux, y)

    onehot = np.zeros((y.shape[0], net.class_count), dtype=main.dtype)
    onehot[np.arange(y.shape[0]), y] = 1.0
    n = y.shape[0]
    # the heads' gradients carry lr / n, so every dw and db is the step itself
    grads = []
    dz = (main - onehot) * (lr / n)
    grads.append((net.main_head, out.T @ dz, dz.sum(axis=0)))
    g = dz @ net.main_head.w.T
    dz = (aux - onehot) * (lr / n)
    grads.append((net.aux_head, tap.T @ dz, dz.sum(axis=0)))
    d_tap = dz @ net.aux_head.w.T
    for i in reversed(range(len(net.layers))):
        if i == net.aux_tap:
            g = g + d_tap
        layer = net.layers[i]
        if not isinstance(layer, _Dense):
            g = g if masks[i] is None else g * masks[i]
            continue
        a = outputs[i]
        dz = g * (a > 0) if layer.activation == "relu" else g * a * (1.0 - a)
        grads.append((layer, inputs[i].T @ dz, dz.sum(axis=0)))
        g = dz @ layer.w.T
    for layer, dw, db in grads:
        layer.w -= dw
        layer.b -= db
    return loss


def net_bits(net):
    return [p.tobytes() for layer in net.dense_layers() for p in (layer.w, layer.b)]


DROPOUT = LayerSpec("dropout", rate=0.3)


def check_training_against_reference(input_dim, units, classes, batch, activation, dropout, dtype):
    dense = [LayerSpec("dense", units=u, activation=activation) for u in units]
    if dropout == "first_layer":
        layers = [DROPOUT, *dense]
    elif dropout == "after_tap":
        layers = [dense[0], DROPOUT, *dense[1:]]
    elif dropout == "two_after_tap":
        layers = [dense[0], DROPOUT, DROPOUT, *dense[1:]]
    elif dropout == "last_layer":  # the main head reads a dropout output
        layers = [*dense, DROPOUT]
    else:
        layers = dense
    spec = PhenotypeSpec(tuple(layers), aux_index=0, learning_rate=0.05, batch_size=batch)
    net = build(spec, input_dim=input_dim, class_count=classes, rng=np.random.default_rng(35))
    reference = build(spec, input_dim=input_dim, class_count=classes, rng=np.random.default_rng(35))
    data = np.random.default_rng(36)
    train_rng, reference_rng = np.random.default_rng(37), np.random.default_rng(37)
    for _ in range(6):
        x = data.random((batch, input_dim)).astype(dtype)
        y = data.integers(0, classes, size=batch)
        loss = _train_batch(net, x, y, 0.05, train_rng)
        assert loss == reference_train_batch(reference, x, y, 0.05, reference_rng)
    assert net_bits(net) == net_bits(reference)
    assert train_rng.random() == reference_rng.random()  # the same draws were consumed


TRAINING_CASES = pytest.mark.parametrize("input_dim, units, classes, batch",
                                         [(8, (16, 64), 3, 32), (784, (128, 64), 10, 50)])
ACTIVATIONS = pytest.mark.parametrize("activation", ["relu", "sigmoid"])
DROPOUTS = pytest.mark.parametrize("dropout", ["none", "first_layer", "after_tap", "two_after_tap",
                                              "last_layer"])


@TRAINING_CASES
@ACTIVATIONS
@DROPOUTS
def test_training_is_bit_equal_to_the_out_of_place_reference(
    input_dim, units, classes, batch, activation, dropout
):
    # float64 batches promote the float32 network to float64 arithmetic
    check_training_against_reference(input_dim, units, classes, batch, activation, dropout, np.float64)


@TRAINING_CASES
@ACTIVATIONS
@DROPOUTS
def test_float32_training_is_bit_equal_to_the_out_of_place_reference(
    input_dim, units, classes, batch, activation, dropout
):
    check_training_against_reference(input_dim, units, classes, batch, activation, dropout, np.float32)


# --- float32 training: the float64 random draws rounded, no float64 leaks,
# and gradients within float32 rounding of the float64 analytic ones


def test_float32_weights_are_the_float64_draws_rounded():
    net = build(dense_spec([16, 8], aux_index=1), input_dim=5, class_count=3,
                rng=np.random.default_rng(42))
    draws = np.random.default_rng(42)
    for layer in net.dense_layers():  # build draws in this order
        s = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        want = draws.uniform(-s, s, size=layer.w.shape).astype(np.float32)
        assert same_bits(layer.w, want)
        assert same_bits(layer.b, np.zeros(layer.fan_out, np.float32))


def dropout_output(rate, x, rng):
    """A lone dropout layer's output, read off a training tape: the main
    head's input."""
    head = _init_dense(x.shape[1], 2, "softmax", np.random.default_rng(0))
    tape = []
    Network([_Dropout(rate)], head, None, None, x.shape[1], 2).forward(x, rng=rng, tape=tape)
    return tape[-1]


def test_float32_dropout_mask_is_the_float64_mask_rounded():
    x = np.ones((40, 7), np.float32)
    mask = _Dropout(0.3).mask(x, np.random.default_rng(3))
    want = ((np.random.default_rng(3).random((40, 7)) >= 0.3) / (1.0 - 0.3)).astype(np.float32)
    assert same_bits(mask, want)
    assert same_bits(dropout_output(0.3, x, np.random.default_rng(3)), want)


@pytest.mark.parametrize("shape, rate", [
    ((199, 784), 0.3),  # several chunks, the last one partial
    ((3, 5000), 0.25),
    ((2, network.DROPOUT_CHUNK + 5), 0.1),  # a row larger than a chunk
    ((1, 1), 0.5),
    ((40, 7), 0.0),
])
@pytest.mark.parametrize("chunk", [network.DROPOUT_CHUNK, 7], ids=["chunk", "tiny-chunk"])
def test_chunked_dropout_mask_equals_the_one_draw_mask(monkeypatch, shape, rate, chunk):
    monkeypatch.setattr(network, "DROPOUT_CHUNK", chunk)
    x = np.random.default_rng(2).random(shape).astype(np.float32)
    mask = _Dropout(rate).mask(x, np.random.default_rng(5))
    out = dropout_output(rate, x, np.random.default_rng(5))
    if rate == 0.0:
        assert out is x and mask is None
        return
    want = (np.random.default_rng(5).random(shape) >= rate) * np.float32(1.0 / (1.0 - rate))
    assert want.dtype == np.float32
    assert same_bits(mask, want)
    assert same_bits(out, x * want)


def test_float32_training_leaks_no_float64(monkeypatch):
    spec = PhenotypeSpec(
        (
            LayerSpec("dense", units=6, activation="relu"),
            LayerSpec("dropout", rate=0.4),
            LayerSpec("dense", units=5, activation="sigmoid"),
        ),
        aux_index=0,
        learning_rate=0.1,
        batch_size=30,
    )
    net = build(spec, input_dim=2, class_count=2, rng=np.random.default_rng(43))
    x, y = two_blobs()
    batches = []
    gradients = network._gradients

    def checked_gradients(net, tape, main, aux, yb, scale):
        # train has cast the float64 samples once, so the batch is float32
        (xb, a), mask, (h, out), head_input = tape
        assert xb.dtype == np.float32
        assert mask is not None and mask.dtype == np.float32
        for array in (a, h, out, head_input, main, aux):
            assert array.dtype == np.float32
        steps = 0
        for layer, dw, db in gradients(net, tape, main, aux, yb, scale):
            for array in (layer.w, layer.b, dw, db):
                assert array.dtype == np.float32
            steps += 1
            yield layer, dw, db
        assert steps == 4  # two hidden layers and two heads
        batches.append(xb.shape[0])

    monkeypatch.setattr(network, "_gradients", checked_gradients)
    # one batch of float64 samples: train casts them once, then one step
    report = train(net, x[:30], y[:30], budget_epochs=1, learning_rate=0.1, batch_size=30,
                   rng=np.random.default_rng(44))
    assert batches == [30]
    assert isinstance(report.final_loss, float) and np.isfinite(report.final_loss)
    for layer in net.dense_layers():
        assert layer.w.dtype == layer.b.dtype == np.float32


@pytest.mark.parametrize("diverge", [False, True], ids=["trained", "diverged"])
def test_train_leaves_weights_only(diverge):
    spec = PhenotypeSpec(
        (
            LayerSpec("dense", units=6, activation="relu"),
            LayerSpec("dropout", rate=0.4),
            LayerSpec("dense", units=5, activation="sigmoid"),
        ),
        aux_index=1,
        learning_rate=0.1,
        batch_size=16,
    )
    net = build(spec, input_dim=2, class_count=2, rng=np.random.default_rng(45))
    if diverge:
        net.layers[0].w[0, 0] = np.inf
    x, y = two_blobs()
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) if diverge else nullcontext():
        train(net, x, y, budget_epochs=2, learning_rate=0.1, batch_size=16,
              rng=np.random.default_rng(46))
    # no batch, activation, dropout mask or gradient step outlives train
    for layer in net.dense_layers():
        assert vars(layer).keys() == {"w", "b", "activation"}
    assert vars(net.layers[1]) == {"rate": 0.4}


def test_train_frees_each_batch_before_the_next_is_built():
    # two dropout layers on 784 inputs at batch 199: a batch holds its
    # gathered rows, two masks and two dropout outputs, 0.62 MB each
    spec = PhenotypeSpec(
        (
            LayerSpec("dropout", rate=0.2),
            LayerSpec("dropout", rate=0.2),
            LayerSpec("dense", units=64, activation="relu"),
        ),
        aux_index=0,
        learning_rate=0.05,
        batch_size=199,
    )
    net = build(spec, input_dim=784, class_count=10, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.random((625, 784)).astype(network.DTYPE)
    y = rng.integers(0, 10, 625)
    tracemalloc.start()
    try:
        train(net, x, y, budget_epochs=1, learning_rate=0.05, batch_size=199,
              rng=np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one batch's tape and the dropout draw buffer; the previous batch's
    # masks and input on top would take it past 4 MB
    assert peak <= 3.5e6


def criterion_5_networks():
    """The 20 tiny networks and batches of acceptance criterion 5, in order."""
    grammar = load_packaged_grammar("dense_only")
    rng = np.random.default_rng(5)
    nets = []
    while len(nets) < 20:
        cfg = GenomeConfig(min_layers=2, max_layers=3, init_layers_min=2, init_layers_max=3)
        spec = to_phenotype(init_individual(grammar, cfg, rng), grammar)
        small = PhenotypeSpec(
            tuple(LayerSpec(l.kind, int(rng.integers(3, 7)), l.activation, l.rate) for l in spec.layers),
            spec.aux_index,
            spec.learning_rate,
            spec.batch_size,
        )
        dims = int(rng.integers(3, 6))
        classes = int(rng.integers(2, 5))
        net = build(small, dims, classes, rng)
        x = rng.standard_normal((5, dims))
        y = rng.integers(0, classes, 5)
        if min_abs_preactivation(net, x) >= 1e-3:
            nets.append((net, x, y))
    return nets


# Each gradient entry of these networks (at most 3 hidden layers of width
# at most 6 plus two heads, batches of 5) comes from about a hundred float32 operations on
# values of order 1, each rounded with relative error at most u = 2**-24.
# A first-order bound on the error is then about 100 u; the test allows
# 128 u, on criterion 5's error form |g32 - g64| / max(1, |g64|).
FLOAT32_GRADIENT_BOUND = 128 * 2.0**-24


def test_float32_gradients_match_the_float64_copy():
    worst = 0.0
    for net, x, y in criterion_5_networks():
        x32 = x.astype(np.float32)
        exact = float64_copy(net)  # the same weights; float32 values are exact in float64
        steps = []
        for n, inputs in ((net, x32), (exact, x32.astype(np.float64))):
            tape = []
            main, aux = n.forward(inputs, tape=tape)
            steps.append(list(_gradients(n, tape, main, aux, y, 1.0)))
        for (_, *got), (_, *want) in zip(*steps, strict=True):
            for g32, g64 in zip(got, want):
                assert g32.dtype == np.float32 and g64.dtype == np.float64
                worst = max(worst, float((np.abs(g32 - g64) / np.maximum(1.0, np.abs(g64))).max()))
    assert worst < FLOAT32_GRADIENT_BOUND

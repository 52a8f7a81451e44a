"""Two-output feed-forward networks built from phenotype specs.

A network is a stack of dense and dropout layers with two softmax heads:
the main head consumes the last hidden layer, the auxiliary head taps the
activations of hidden (dense) layer ``aux_index``, before any dropout
that follows it.  Training minimizes the joint loss

    L = CE(main) + CE(aux)

with plain mini-batch gradient descent; both cross-entropy terms carry
equal weight.  ``split`` cuts the trained model into the two standalone
partitions: the left one is the full stack with the main head, the right
one is the prefix up to the tap plus the auxiliary head.  Partition
weights are exact copies, so partition outputs match the full model's
heads bit for bit, and ``evaluate_accuracy`` on the unsplit model scores
both partitions from one forward pass.

Layers compute their activations in the buffer of the affine map, and
gradient steps update the weights in place, with the operations in the
same order as the out-of-place expressions they replace.  Backpropagation
stops at the first dense layer: the gradient with respect to the input
is never needed.  ``_Dense.backward`` and ``_Dropout.backward`` overwrite
the incoming gradient ``g``.

The sigmoid is ``0.5 * tanh(0.5 * z) + 0.5``: it cannot overflow, and it
lies within one ulp of 1.0 of the exact sigmoid (2**-23 in float32,
2**-52 in float64).  Training scales the heads' dL/dz by
``learning_rate / n`` in one multiply, so every stored dW and db is the
descent step itself and ``_Dense.step`` only subtracts it.

Networks compute in float32 (``DTYPE``): weights, biases, activations,
dropout masks, gradients and steps.  The code is dtype-generic, so a
layer computes in the dtype of its weights; ``train`` and
``evaluate_accuracy`` cast their inputs to it once per call.  The random
draws stay float64 and are rounded: weights initialize from a float64
uniform draw in ``[-s, s]`` with ``s = sqrt(6 / (fan_in + fan_out))``,
biases are zero, and dropout keeps float64 uniform draws, so a float32
network is the float64 network of the same stream rounded.  Losses are
averaged in float64.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, TrainingDivergedError
from .genome import LayerSpec, PhenotypeSpec

PROB_FLOOR = 1e-12
DTYPE = np.float32


def _sigmoid(z, out=None):
    # 0.5 * tanh(0.5 * z) + 0.5 in four passes over ``out``; tanh saturates
    # where exp would overflow
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _softmax(z):
    """Row softmax of z, computed in place."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


class _Dense:
    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str):
        if activation not in ("relu", "sigmoid", "softmax"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.w = w
        self.b = b
        self.activation = activation
        self._x = None
        self._a = None
        self.dw = None
        self.db = None

    @property
    def fan_in(self) -> int:
        return self.w.shape[0]

    @property
    def fan_out(self) -> int:
        return self.w.shape[1]

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        a = x @ self.w
        a += self.b
        if self.activation == "relu":
            np.maximum(a, 0.0, out=a)
        elif self.activation == "sigmoid":
            _sigmoid(a, out=a)
        else:
            _softmax(a)
        if cache:
            self._x, self._a = x, a
        return a

    def backward(self, g: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Gradient through activation and affine map; g is dL/d(output)
        and is overwritten with dL/dz.  Returns dL/d(input), or None
        without ``input_grad``."""
        if self.activation == "relu":
            np.multiply(g, self._a > 0, out=g)
        elif self.activation == "sigmoid":
            g *= self._a
            g *= 1.0 - self._a
        else:
            raise ValueError("softmax layers receive dz directly")
        return self.backward_from_dz(g, input_grad)

    def backward_from_dz(self, dz: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        self.dw = self._x.T @ dz
        self.db = dz.sum(axis=0)
        return dz @ self.w.T if input_grad else None

    def step(self) -> None:
        """Descend by the stored gradients, which already carry the learning rate."""
        self.w -= self.dw
        self.b -= self.db

    def copy(self, dtype=None) -> "_Dense":
        """A copy computing in ``dtype`` (default: the weights' dtype)."""
        dtype = self.w.dtype if dtype is None else dtype
        return _Dense(self.w.astype(dtype), self.b.astype(dtype), self.activation)


class _Dropout:
    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None) -> np.ndarray:
        # rng None with train=True means "cache but keep dropout inactive",
        # which the gradient check relies on
        if not train or self.rate == 0.0 or rng is None:
            self._mask = None
            return x
        # float64 uniform draws; the kept entries scale by 1 / (1 - rate),
        # rounded once to the dtype of x
        keep = rng.random(x.shape) >= self.rate
        self._mask = mask = keep * x.dtype.type(1.0 / (1.0 - self.rate))
        return x * mask

    def backward(self, g: np.ndarray) -> np.ndarray:
        """dL/d(input) from g = dL/d(output), computed in g."""
        if self._mask is not None:
            g *= self._mask
        return g

    def copy(self, dtype=None) -> "_Dropout":
        return _Dropout(self.rate)


def _init_dense(fan_in: int, fan_out: int, activation: str, rng: np.random.Generator) -> _Dense:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-s, s, size=(fan_in, fan_out)).astype(DTYPE)
    return _Dense(w, np.zeros(fan_out, DTYPE), activation)


class Network:
    """Layer stack plus main head; aux head present until split."""

    def __init__(
        self,
        layers: list,
        main_head: _Dense,
        aux_head: _Dense | None,
        aux_tap: int | None,
        input_dim: int,
        class_count: int,
    ):
        self.layers = layers
        self.main_head = main_head
        self.aux_head = aux_head
        self.aux_tap = aux_tap  # index into layers of the tapped dense layer
        self.input_dim = input_dim
        self.class_count = class_count

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Both heads' probabilities; aux slot is None after a split."""
        out = x
        tap = None
        for i, layer in enumerate(self.layers):
            if isinstance(layer, _Dropout):
                out = layer.forward(out, train, rng)
            else:
                out = layer.forward(out, cache=train)
            if i == self.aux_tap:
                tap = out
        main = self.main_head.forward(out, cache=train)
        aux = None
        if self.aux_head is not None:
            if tap is None:
                raise EvaluationError("aux head present but no tap layer recorded")
            aux = self.aux_head.forward(tap, cache=train)
        return main, aux

    @property
    def dtype(self) -> np.dtype:
        """The dtype every layer computes in."""
        return self.main_head.w.dtype

    def astype(self, dtype) -> "Network":
        """A copy of the network computing in ``dtype``."""
        return Network(
            [l.copy(dtype) for l in self.layers],
            self.main_head.copy(dtype),
            None if self.aux_head is None else self.aux_head.copy(dtype),
            self.aux_tap,
            self.input_dim,
            self.class_count,
        )

    def dense_layers(self) -> list[_Dense]:
        stack = [l for l in self.layers if isinstance(l, _Dense)]
        stack.append(self.main_head)
        if self.aux_head is not None:
            stack.append(self.aux_head)
        return stack


def build_stack(
    layer_specs: Iterable[LayerSpec],
    input_dim: int,
    class_count: int,
    rng: np.random.Generator,
) -> Network:
    """The layers in order, then the main softmax head; no auxiliary head."""
    layers: list = []
    fan_in = input_dim
    for layer in layer_specs:
        if layer.kind == "dense":
            layers.append(_init_dense(fan_in, layer.units, layer.activation, rng))
            fan_in = layer.units
        elif layer.kind == "dropout":
            layers.append(_Dropout(layer.rate))
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
    main_head = _init_dense(fan_in, class_count, "softmax", rng)
    return Network(layers, main_head, None, None, input_dim, class_count)


def build(
    spec: PhenotypeSpec,
    input_dim: int,
    class_count: int,
    rng: np.random.Generator,
) -> Network:
    """Instantiate a two-output network; wiring follows the spec's layer order."""
    dense = [i for i, layer in enumerate(spec.layers) if layer.kind == "dense"]
    if not 0 <= spec.aux_index < len(dense):
        raise EvaluationError(f"aux_index {spec.aux_index} beyond the {len(dense)} dense layers")
    net = build_stack(spec.layers, input_dim, class_count, rng)
    net.aux_tap = dense[spec.aux_index]
    net.aux_head = _init_dense(net.layers[net.aux_tap].fan_out, class_count, "softmax", rng)
    return net


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    n = labels.shape[0]
    p = np.maximum(probs[np.arange(n), labels], PROB_FLOOR)
    np.log(p, out=p)
    # the per-sample log-probabilities keep the network's dtype; their
    # mean is taken in float64
    return float(-(p.sum(dtype=np.float64) / n))


def joint_loss(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    """CE(main) + CE(aux); plain CE(main) for split partitions."""
    main, aux = net.forward(x)
    loss = cross_entropy(main, y)
    if aux is not None:
        loss += cross_entropy(aux, y)
    return loss


@dataclass
class TrainReport:
    epochs_run: int
    final_loss: float
    history: list[float]


def _backward(net: Network, main: np.ndarray, aux: np.ndarray, y: np.ndarray, scale: float) -> None:
    """Store ``scale`` times dL/dW and dL/db of the joint loss on every
    dense layer, from the heads' cached forward pass; with the learning
    rate as ``scale`` they are the descent steps.  ``main`` and ``aux``
    are overwritten with the heads' scaled dL/dz."""
    n = y.shape[0]
    rows = np.arange(n)
    for probs in (main, aux):
        # (probs - onehot) * scale / n: subtracting the one-hot zeros is exact
        probs[rows, y] -= 1.0
        probs *= scale / n
    g = net.main_head.backward_from_dz(main)
    d_tap = net.aux_head.backward_from_dz(aux)
    first = next(i for i, layer in enumerate(net.layers) if isinstance(layer, _Dense))
    for i in range(len(net.layers) - 1, first - 1, -1):
        if i == net.aux_tap:
            g += d_tap
        if i == first:
            net.layers[i].backward(g, input_grad=False)
        else:
            g = net.layers[i].backward(g)


def _train_batch(
    net: Network,
    dense: list[_Dense],
    x: np.ndarray,
    y: np.ndarray,
    lr: float,
    rng: np.random.Generator,
) -> float:
    """One descent step on a batch; ``dense`` is ``net.dense_layers()``."""
    main, aux = net.forward(x, train=True, rng=rng)
    loss = cross_entropy(main, y) + cross_entropy(aux, y)
    _backward(net, main, aux, y, lr)
    for layer in dense:
        layer.step()
    return loss


def train(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    budget_epochs: int,
    learning_rate: float,
    batch_size: int,
    rng: np.random.Generator,
) -> TrainReport:
    """Mini-batch gradient descent on the joint loss.

    The per-epoch history records the exact sample-weighted mean of the
    batch losses.  A non-finite loss aborts with
    :class:`TrainingDivergedError`.  Either way the network is left
    holding its weights only: no cached batch, activation, dropout mask
    or gradient step.
    """
    if budget_epochs < 1:
        raise ValueError(f"budget_epochs must be >= 1, got {budget_epochs}")
    if net.aux_head is None:
        raise EvaluationError("training requires the two-output network, not a partition")
    n = x.shape[0]
    if n == 0:
        raise EvaluationError("empty training set")
    batch = max(1, min(int(batch_size), n))
    x = x.astype(net.dtype, copy=False)
    dense = net.dense_layers()
    history = []
    try:
        for _ in range(int(budget_epochs)):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                loss = _train_batch(net, dense, x[idx], y[idx], learning_rate, rng)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss {loss} during training")
                total += loss * idx.shape[0]
            history.append(total / n)
    finally:
        # the last batch's inputs, activations, masks and steps are dead
        # weight once training stops
        for layer in dense:
            layer._x = layer._a = layer.dw = layer.db = None
        for layer in net.layers:
            if isinstance(layer, _Dropout):
                layer._mask = None
    return TrainReport(len(history), history[-1], history)


def split(net: Network) -> tuple[Network, Network]:
    """Standalone (left, right) partitions with copied weights.

    Left is the full stack plus the main head; right is the prefix up to
    the tapped layer plus the auxiliary head.
    """
    if net.aux_head is None or net.aux_tap is None:
        raise EvaluationError("network has already been split")
    left = Network(
        [l.copy() for l in net.layers],
        net.main_head.copy(),
        None,
        None,
        net.input_dim,
        net.class_count,
    )
    right = Network(
        [l.copy() for l in net.layers[: net.aux_tap + 1]],
        net.aux_head.copy(),
        None,
        None,
        net.input_dim,
        net.class_count,
    )
    return left, right


def evaluate_accuracy(net: Network, x: np.ndarray, y: np.ndarray) -> tuple[float, float | None]:
    """Each head's fraction of argmax predictions matching labels, dropout
    off: (main, aux), like :meth:`Network.forward`; aux is None after a
    split.  On the unsplit network they equal the left and right
    partitions' accuracies."""
    if x.shape[0] == 0:
        raise EvaluationError("cannot evaluate accuracy on empty data")
    main, aux = net.forward(x.astype(net.dtype, copy=False))
    acc_aux = None if aux is None else float(np.mean(aux.argmax(axis=1) == y))
    return float(np.mean(main.argmax(axis=1) == y)), acc_aux


def count_macs(net: Network) -> int:
    """Per-sample multiply-accumulates; dense layers and heads only."""
    return sum(l.fan_in * l.fan_out for l in net.dense_layers())


def _params(net: Network) -> list[np.ndarray]:
    out = []
    for layer in net.dense_layers():
        out.extend((layer.w, layer.b))
    return out


def finite_difference_check(
    net: Network, x: np.ndarray, y: np.ndarray, epsilon: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The check runs on a float64 copy of the network and of ``x``, so
    ``epsilon`` and the error are float64 quantities whatever dtype the
    network trains in; the copy runs the same dtype-generic layers.
    Dropout is inactive during the check, so repeated calls agree exactly.
    The relative error uses ``|ga - gn| / max(1, |ga|, |gn|)`` to stay
    finite around zero gradients.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    net = net.astype(np.float64)
    x = np.asarray(x, dtype=np.float64)
    main, aux = net.forward(x, train=True, rng=None)
    _backward(net, main, aux, y, 1.0)

    grads = []
    for layer in net.dense_layers():
        grads.extend((layer.dw, layer.db))

    worst = 0.0
    for param, grad in zip(_params(net), grads):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.shape[0]):
            keep = flat[j]
            flat[j] = keep + epsilon
            up = joint_loss(net, x, y)
            flat[j] = keep - epsilon
            down = joint_loss(net, x, y)
            flat[j] = keep
            numeric = (up - down) / (2.0 * epsilon)
            err = abs(gflat[j] - numeric) / max(1.0, abs(gflat[j]), abs(numeric))
            worst = max(worst, err)
    return worst


def save_weights(net: Network, path) -> None:
    """Dump weights as a flat little-endian binary record.

    Layout: uint32 array count, then per array a uint32 ndim, ndim uint32
    dimensions, and the row-major float32 values.  Arrays appear as (W, b)
    pairs for each dense layer in stack order, then the main head, then
    the auxiliary head when present.
    """
    arrays = _params(net)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes(order="C"))


def load_weights(path) -> list[np.ndarray]:
    """Read a weight dump back as a list of float32 arrays."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    (count,) = take("<I")
    arrays = []
    for _ in range(count):
        (ndim,) = take("<I")
        shape = take(f"<{ndim}I")
        n = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(shape)
        off += 4 * n
        arrays.append(arr.copy())
    return arrays

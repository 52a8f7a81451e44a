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

Layers hold only their parameters.  A training forward pass records
what backpropagation reads on a tape, a list the caller owns, so a
batch's arrays live on its tape and die with it.  Layers compute their
activations in the buffer of the affine map, and gradient steps update
the weights in place, with the operations in the same order as the
out-of-place expressions they replace.  Backpropagation stops at the
first dense layer: the gradient with respect to the input is never
needed.

The sigmoid is ``0.5 * tanh(0.5 * z) + 0.5``: it cannot overflow, and it
lies within one ulp of 1.0 of the exact sigmoid (2**-23 in float32,
2**-52 in float64).  Training scales the heads' dL/dz by
``learning_rate / n`` in one multiply, so every dW and db that
``_gradients`` yields is the descent step itself, and each step is
applied as it is yielded.

Networks compute in float32 (``DTYPE``): weights, biases, activations,
dropout masks, gradients and steps.  The engine's task data is held in
``DTYPE`` already; ``train`` and ``evaluate_accuracy`` cast any other
input to it once per call.  The random draws stay float64 and are
rounded: weights initialize from a float64 uniform draw in ``[-s, s]``
with ``s = sqrt(6 / (fan_in + fan_out))``, biases are zero, and dropout
keeps float64 uniform draws, drawn in chunks of ``DROPOUT_CHUNK``
values, so a float32 network is the float64 network of the same stream
rounded.  Losses are averaged in float64.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, EvaluationError, TrainingDivergedError
from .genome import LayerSpec, PhenotypeSpec

PROB_FLOOR = 1e-12
DTYPE = np.float32
# float64 uniforms a dropout layer draws at a time (256 KiB); smaller
# chunks cost more in per-call overhead than they save in cache misses
DROPOUT_CHUNK = 32768


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
        self.w = w
        self.b = b
        self.activation = activation

    @property
    def fan_in(self) -> int:
        return self.w.shape[0]

    @property
    def fan_out(self) -> int:
        return self.w.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = x @ self.w
        a += self.b
        if self.activation == "relu":
            np.maximum(a, 0.0, out=a)
        elif self.activation == "sigmoid":
            _sigmoid(a, out=a)
        else:
            _softmax(a)
        return a

    def copy(self) -> "_Dense":
        return _Dense(self.w.copy(), self.b.copy(), self.activation)


class _Dropout:
    def __init__(self, rate: float):
        self.rate = rate

    def mask(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
        """The scaled keep mask for ``x``, or None at rate 0 (no draws)."""
        if self.rate == 0.0:
            return None
        # float64 uniform draws, DROPOUT_CHUNK at a time: Generator.random
        # fills in C order, so the chunks continue one stream.  Each
        # u >= rate lands in the mask as 1 or 0, and the kept entries scale
        # by 1 / (1 - rate), rounded once to the dtype of x
        mask = np.empty(x.shape, x.dtype)
        flat = mask.reshape(-1)
        u = np.empty(min(DROPOUT_CHUNK, flat.shape[0]))
        for start in range(0, flat.shape[0], DROPOUT_CHUNK):
            chunk = flat[start : start + DROPOUT_CHUNK]
            draws = rng.random(out=u[: chunk.shape[0]])
            np.greater_equal(draws, self.rate, out=chunk, casting="unsafe")
        mask *= x.dtype.type(1.0 / (1.0 - self.rate))
        return mask

    def copy(self) -> "_Dropout":
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
        rng: np.random.Generator | None = None,
        tape: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Both heads' probabilities; aux slot is None after a split.

        Dropout is on only with ``rng``.  A ``tape`` gets one entry per
        layer, ``(input, output)`` for a dense layer and the mask (None
        when off) for a dropout, then the main head's input.
        """
        out = x
        tap = None
        for i, layer in enumerate(self.layers):
            if isinstance(layer, _Dense):
                record = (out, layer.forward(out))
                out = record[1]
            else:
                record = None if rng is None else layer.mask(out, rng)
                if record is not None:
                    out = out * record
            if tape is not None:
                tape.append(record)
            if i == self.aux_tap:
                tap = out
        if tape is not None:
            tape.append(out)
        main = self.main_head.forward(out)
        aux = None
        if self.aux_head is not None:
            if tap is None:
                raise EvaluationError("aux head present but no tap layer recorded")
            aux = self.aux_head.forward(tap)
        return main, aux

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
        else:
            layers.append(_Dropout(layer.rate))
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


@dataclass
class TrainReport:
    epochs_run: int
    final_loss: float
    history: list[float]


def _gradients(net: Network, tape: list, main: np.ndarray, aux: np.ndarray, y: np.ndarray, scale: float):
    """Yield ``(layer, dW, db)``, ``scale`` times the joint loss's
    gradients, for the main head, the aux head, then the hidden dense
    layers from last to first; with the learning rate as ``scale`` they
    are the descent steps.  ``tape`` is the forward pass's record.  Each
    layer is yielded after its input gradient is taken, so the caller
    may step it at once.  ``main`` and ``aux`` are overwritten with the
    heads' scaled dL/dz."""
    n = y.shape[0]
    rows = np.arange(n)
    grads = []
    for head, x, dz in ((net.main_head, tape[-1], main), (net.aux_head, tape[net.aux_tap][1], aux)):
        # (probs - onehot) * scale / n: subtracting the one-hot zeros is exact
        dz[rows, y] -= 1.0
        dz *= scale / n
        dw, db = x.T @ dz, dz.sum(axis=0)
        grads.append(dz @ head.w.T)
        yield head, dw, db
    g, d_tap = grads
    first = next(i for i, layer in enumerate(net.layers) if isinstance(layer, _Dense))
    for i in range(len(net.layers) - 1, first - 1, -1):
        if i == net.aux_tap:
            g += d_tap
        layer, record = net.layers[i], tape[i]
        if isinstance(layer, _Dropout):
            if record is not None:
                g *= record
            continue
        x, a = record
        if layer.activation == "relu":
            np.multiply(g, a > 0, out=g)
        else:  # sigmoid, the one other hidden activation
            g *= a
            g *= 1.0 - a
        dw, db = x.T @ g, g.sum(axis=0)
        if i > first:
            g = g @ layer.w.T
        yield layer, dw, db


def _train_batch(net: Network, x: np.ndarray, y: np.ndarray, lr: float, rng: np.random.Generator) -> float:
    """One descent step on a batch."""
    tape = []
    main, aux = net.forward(x, rng=rng, tape=tape)
    loss = cross_entropy(main, y) + cross_entropy(aux, y)
    for layer, dw, db in _gradients(net, tape, main, aux, y, lr):
        layer.w -= dw
        layer.b -= db
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
    :class:`TrainingDivergedError`.
    """
    if budget_epochs < 1:
        raise ValueError(f"budget_epochs must be >= 1, got {budget_epochs}")
    if net.aux_head is None:
        raise EvaluationError("training requires the two-output network, not a partition")
    n = x.shape[0]
    if n == 0:
        raise EvaluationError("empty training set")
    batch = max(1, min(int(batch_size), n))
    x = x.astype(DTYPE, copy=False)
    history = []
    for _ in range(int(budget_epochs)):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss = _train_batch(net, x[idx], y[idx], learning_rate, rng)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss {loss} during training")
            total += loss * idx.shape[0]
        history.append(total / n)
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
    main, aux = net.forward(x.astype(DTYPE, copy=False))
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
    """Read a weight dump back as a list of float32 arrays.  A file that
    cannot be read, ends inside an array, or holds bytes after the last
    one raises :class:`DataError`."""
    try:
        blob = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read weight file {path}: {exc}")
    off = 0

    def take(nbytes: int) -> memoryview:
        # every length is checked before it is read or allocated
        nonlocal off
        if nbytes > len(blob) - off:
            raise DataError(f"weight file {path} ends inside its data")
        off += nbytes
        return blob[off - nbytes : off]

    (count,) = struct.unpack("<I", take(4))
    arrays = []
    for _ in range(count):
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        values = take(4 * math.prod(shape))
        try:
            # an empty array may still name dimensions numpy cannot index
            array = np.frombuffer(values, dtype="<f4").reshape(shape)
        except ValueError as exc:
            raise DataError(f"weight file {path} holds an array of shape {shape}: {exc}")
        arrays.append(array.copy())
    if off != len(blob):
        raise DataError(f"weight file {path} holds {len(blob) - off} bytes after its last array")
    return arrays

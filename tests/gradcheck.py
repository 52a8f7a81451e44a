"""The gradient check the network tests and acceptance criterion 5 share.

It runs on a float64 copy of a float32 network: float32 values are exact
in float64, so the copy holds the same weights, and ``epsilon`` and the
error are float64 quantities.
"""

import numpy as np

from evopower.network import Network, _Dense, _Dropout, _gradients, cross_entropy


def float64_copy(net: Network) -> Network:
    """The same network computing in float64; it shares the dropout layers,
    which hold only their rates."""

    def copy(layer):
        if isinstance(layer, _Dropout):
            return layer
        return _Dense(layer.w.astype(np.float64), layer.b.astype(np.float64), layer.activation)

    return Network(
        [copy(layer) for layer in net.layers],
        copy(net.main_head),
        None if net.aux_head is None else copy(net.aux_head),
        net.aux_tap,
        net.input_dim,
        net.class_count,
    )


def joint_loss(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    """CE(main) + CE(aux); plain CE(main) for split partitions."""
    main, aux = net.forward(x)
    loss = cross_entropy(main, y)
    if aux is not None:
        loss += cross_entropy(aux, y)
    return loss


def finite_difference_check(
    net: Network, x: np.ndarray, y: np.ndarray, epsilon: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients
    of the joint loss, on a float64 copy of the network and of ``x``.

    The forward passes get no generator, so dropout is off and repeated
    calls agree exactly.  The relative error uses
    ``|ga - gn| / max(1, |ga|, |gn|)`` to stay finite around zero
    gradients.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    net = float64_copy(net)
    x = np.asarray(x, dtype=np.float64)
    tape = []
    main, aux = net.forward(x, tape=tape)
    steps = list(_gradients(net, tape, main, aux, y, 1.0))

    worst = 0.0
    for layer, dw, db in steps:
        for param, grad in ((layer.w, dw), (layer.b, db)):
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

"""
One network, two exits
======================

Every candidate is a feed-forward classifier with a second softmax head
attached partway down the stack.  Training optimizes both heads jointly;
afterwards the model splits into two standalone deployables that answer
exactly like the heads they came from.
"""

import numpy as np

from evopower.data import synthetic_dataset
from evopower.genome import LayerSpec, PhenotypeSpec
from evopower.network import (
    build,
    count_macs,
    evaluate_accuracy,
    load_weights,
    save_weights,
    split,
    train,
)

# a small three-class task and a two-hidden-layer phenotype whose
# auxiliary head taps the first hidden layer (aux_index counts dense
# layers from zero)
ds = synthetic_dataset(classes=3, samples_per_class=200, dimensions=10, separation=3.5, seed=0)
spec = PhenotypeSpec(
    layers=(
        LayerSpec("dense", units=32, activation="relu"),
        LayerSpec("dense", units=24, activation="relu"),
    ),
    aux_index=0,
    learning_rate=0.05,
    batch_size=32,
)

rng = np.random.default_rng(1)
net = build(spec, input_dim=10, class_count=3, rng=rng)
report = train(net, ds.samples, ds.labels, budget_epochs=8, learning_rate=0.05, batch_size=32, rng=rng)
print("epochs run:", report.epochs_run, " final joint loss: %.4f" % report.final_loss)

# the full model answers through both heads at once, so one pass
# scores both
main, aux = net.forward(ds.samples)
acc_main, acc_aux = evaluate_accuracy(net, ds.samples, ds.labels)
print("main head accuracy: %.3f" % acc_main)
print("aux head accuracy:  %.3f" % acc_aux)

# splitting yields the full-depth left model and the shallow right
# model; weights are copies, so the outputs match the heads exactly
left, right = split(net)
print("left == main head: ", bool(np.array_equal(left.forward(ds.samples)[0], main)))
print("right == aux head: ", bool(np.array_equal(right.forward(ds.samples)[0], aux)))
# a partition has one head, so its aux slot is None
print("left accuracy %.3f with %d MACs/sample" % (evaluate_accuracy(left, ds.samples, ds.labels)[0], count_macs(left)))
print("right accuracy %.3f with %d MACs/sample" % (evaluate_accuracy(right, ds.samples, ds.labels)[0], count_macs(right)))

# weights round-trip through a compact little-endian dump
save_weights(left, "/tmp/left_weights.bin")
arrays = load_weights("/tmp/left_weights.bin")
print("dumped arrays:", len(arrays), " first shape:", arrays[0].shape)

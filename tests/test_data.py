import gzip
import struct

import numpy as np
import pytest

from evopower.data import Dataset, SplitSpec, load_idx, split, synthetic_dataset
from evopower.errors import DataError


def write_idx_pair(tmp_path, pixels=bytes(range(24)), labels=bytes([0, 1, 2, 1]),
                   count=4, rows=2, cols=3, img_magic=0x803, lbl_magic=0x801,
                   gz=False):
    img = struct.pack(">IIII", img_magic, count, rows, cols) + pixels
    lbl = struct.pack(">II", lbl_magic, len(labels)) + labels
    if gz:
        img, lbl = gzip.compress(img), gzip.compress(lbl)
    img_path = tmp_path / ("images.idx" + (".gz" if gz else ""))
    lbl_path = tmp_path / ("labels.idx" + (".gz" if gz else ""))
    img_path.write_bytes(img)
    lbl_path.write_bytes(lbl)
    return img_path, lbl_path


def test_load_idx_fixture_bit_exact(tmp_path):
    ds = load_idx(*write_idx_pair(tmp_path))
    assert ds.samples.shape == (4, 6)
    assert ds.labels.tolist() == [0, 1, 2, 1]
    assert ds.class_count == 3
    recovered = np.round(ds.samples * 255.0).astype(np.uint8).reshape(-1)
    assert recovered.tolist() == list(range(24))
    assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0


def test_load_idx_gzip_transparent(tmp_path):
    plain = load_idx(*write_idx_pair(tmp_path))
    zipped = load_idx(*write_idx_pair(tmp_path, gz=True))
    assert np.array_equal(plain.samples, zipped.samples)
    assert np.array_equal(plain.labels, zipped.labels)


def test_load_idx_rejects_bad_magic(tmp_path):
    img, lbl = write_idx_pair(tmp_path, lbl_magic=0x803)
    with pytest.raises(DataError, match="bad magic"):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, img_magic=0x801)
    with pytest.raises(DataError, match="bad magic"):
        load_idx(img, lbl)


def test_load_idx_rejects_truncation_and_mismatch(tmp_path):
    img, lbl = write_idx_pair(tmp_path, pixels=bytes(range(23)))  # one byte short
    with pytest.raises(DataError, match="expected"):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, labels=bytes([0, 1, 2]))  # 3 labels, 4 images
    with pytest.raises(DataError, match="labels"):
        load_idx(img, lbl)


@pytest.mark.parametrize("damage", ["junk", "truncated", "corrupt_block", "trailing_junk"])
def test_load_idx_rejects_corrupt_gzip(tmp_path, damage):
    img, lbl = write_idx_pair(tmp_path, gz=True)
    z = img.read_bytes()
    img.write_bytes({
        "junk": b"\x1f\x8b" + b"junk" * 4,  # gzip.BadGzipFile
        "truncated": z[:-12],  # EOFError
        "corrupt_block": z[:10] + b"\xff" * 6 + z[16:],  # zlib.error
        "trailing_junk": z + b"junk" * 4,  # gzip.BadGzipFile
    }[damage])
    with pytest.raises(DataError, match="corrupt gzip"):
        load_idx(img, lbl)


def test_synthetic_shapes_and_determinism():
    a = synthetic_dataset(classes=4, samples_per_class=25, dimensions=6, separation=3.0, seed=9)
    b = synthetic_dataset(classes=4, samples_per_class=25, dimensions=6, separation=3.0, seed=9)
    assert len(a) == 100
    assert a.samples.shape == (100, 6)
    assert a.class_count == 4
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)
    assert a.samples.min() >= 0.0 and a.samples.max() <= 1.0
    assert np.bincount(a.labels, minlength=4).tolist() == [25] * 4

    c = synthetic_dataset(classes=4, samples_per_class=25, dimensions=6, separation=3.0, seed=10)
    assert not np.array_equal(a.samples, c.samples)


def test_synthetic_multi_cluster_classes():
    ds = synthetic_dataset(classes=3, samples_per_class=20, dimensions=4, separation=5.0,
                           seed=1, clusters_per_class=3)
    assert len(ds) == 60
    assert np.bincount(ds.labels, minlength=3).tolist() == [20] * 3


def reference_synthetic(classes, samples_per_class, dimensions, separation, seed,
                        clusters_per_class):
    """The blob generator drawn, stacked and scaled out of place."""
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    center_index = 0
    for c in range(classes):
        for j in range(clusters_per_class):
            n = samples_per_class // clusters_per_class + (j < samples_per_class % clusters_per_class)
            center = np.zeros(dimensions)
            center[center_index % dimensions] = (center_index // dimensions + 1) * separation
            center_index += 1
            chunks.append(rng.normal(0.0, 1.0, size=(n, dimensions)) + center)
            labels.append(np.full(n, c, dtype=np.int64))
    samples = np.vstack(chunks)
    lo, hi = samples.min(), samples.max()
    if hi > lo:
        samples = (samples - lo) / (hi - lo)
    order = rng.permutation(samples.shape[0])
    return samples[order], np.concatenate(labels)[order]


@pytest.mark.parametrize("args", [
    (10, 100, 784, 3.0, 1, 1),  # the IDX-shaped benchmark task
    (4, 800, 8, 4.5, 0, 1),  # configs/desk.cfg
    (3, 20, 4, 5.0, 2, 3),
    (3, 7, 5, 1.0, 3, 3),  # clusters of unequal size
    (2, 2, 3, 1.0, 4, 3),  # an empty cluster
    (1, 1, 1, 0.0, 5, 1),  # one value: nothing to scale
])
def test_synthetic_is_bit_equal_to_the_out_of_place_reference(args):
    ds = synthetic_dataset(*args[:5], clusters_per_class=args[5])
    samples, labels = reference_synthetic(*args)
    assert ds.samples.dtype == samples.dtype and ds.samples.tobytes() == samples.tobytes()
    assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(DataError):
        synthetic_dataset(0, 10, 2, 1.0)
    with pytest.raises(DataError):
        synthetic_dataset(2, 10, 2, -1.0)


@pytest.mark.parametrize("classes, dimensions, separation", [
    (3, 4, float("inf")),
    (3, 2, 1e308),  # the third class center sits at 2e308
    (2, 1, 1e308),
])
def test_separation_beyond_float_range_is_a_data_error(classes, dimensions, separation):
    # the samples would scale to nan, and every evaluation would diverge
    with pytest.raises(DataError, match="beyond float range"):
        synthetic_dataset(classes, 10, dimensions, separation)
    # the same separation fits when every center is one step from the origin
    ds = synthetic_dataset(dimensions, 10, dimensions, min(separation, 1e308))
    assert np.isfinite(ds.samples).all()


def test_separable_task_is_learnable():
    from evopower.genome import LayerSpec, PhenotypeSpec
    from evopower.network import build, evaluate_accuracy, train

    ds = synthetic_dataset(classes=2, samples_per_class=200, dimensions=4, separation=10.0, seed=3)
    tr, va, te = split(ds, SplitSpec(fractions=(0.6, 0.2, 0.2), seed=0))
    spec = PhenotypeSpec(
        (LayerSpec("dense", units=8, activation="relu"),
         LayerSpec("dense", units=8, activation="relu")),
        aux_index=0, learning_rate=0.5, batch_size=32,
    )
    net = build(spec, input_dim=4, class_count=2, rng=np.random.default_rng(4))
    train(net, tr.samples, tr.labels, budget_epochs=30, learning_rate=0.5, batch_size=32,
          rng=np.random.default_rng(5))
    assert evaluate_accuracy(net, te.samples, te.labels)[0] > 0.95


def test_zero_separation_is_chance_level():
    from evopower.genome import LayerSpec, PhenotypeSpec
    from evopower.network import build, evaluate_accuracy, train

    ds = synthetic_dataset(classes=4, samples_per_class=300, dimensions=4, separation=0.0, seed=6)
    tr, va, te = split(ds, SplitSpec(fractions=(0.6, 0.2, 0.2), seed=0))
    spec = PhenotypeSpec(
        (LayerSpec("dense", units=8, activation="relu"),
         LayerSpec("dense", units=8, activation="relu")),
        aux_index=0, learning_rate=0.1, batch_size=32,
    )
    net = build(spec, input_dim=4, class_count=4, rng=np.random.default_rng(7))
    train(net, tr.samples, tr.labels, budget_epochs=10, learning_rate=0.1, batch_size=32,
          rng=np.random.default_rng(8))
    assert abs(evaluate_accuracy(net, te.samples, te.labels)[0] - 0.25) < 0.1


def test_split_sizes_and_disjointness():
    ds = synthetic_dataset(classes=10, samples_per_class=100, dimensions=3, separation=2.0, seed=11)
    tr, va, te = split(ds, SplitSpec(fractions=(0.8, 0.1, 0.1), seed=2))
    assert (len(tr), len(va), len(te)) == (800, 100, 100)

    # disjointness via row identity: all rows unique in the source
    def rows(d):
        return {tuple(row) for row in d.samples}

    assert len(rows(ds)) == 1000
    assert rows(tr) | rows(va) | rows(te) <= rows(ds)
    assert not rows(tr) & rows(va)
    assert not rows(tr) & rows(te)
    assert not rows(va) & rows(te)


def test_split_stratification_balance():
    ds = synthetic_dataset(classes=10, samples_per_class=100, dimensions=3, separation=2.0, seed=12)
    tr, va, te = split(ds, SplitSpec(fractions=(0.8, 0.1, 0.1), seed=3))
    for part, per_class in ((tr, 80), (va, 10), (te, 10)):
        counts = np.bincount(part.labels, minlength=10)
        assert np.all(np.abs(counts - per_class) <= 1)


def test_split_determinism_and_validation():
    ds = synthetic_dataset(classes=3, samples_per_class=50, dimensions=2, separation=2.0, seed=13)
    a = split(ds, SplitSpec(fractions=(0.5, 0.25, 0.25), seed=4))
    b = split(ds, SplitSpec(fractions=(0.5, 0.25, 0.25), seed=4))
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)

    with pytest.raises(DataError):
        split(ds, SplitSpec(fractions=(0.8, 0.3, 0.1), seed=0))
    with pytest.raises(DataError):
        split(ds, SplitSpec(fractions=(0.8, -0.1, 0.1), seed=0))
    with pytest.raises(DataError):
        split(ds, SplitSpec(fractions=(0.8, 0.1), seed=0))  # type: ignore[arg-type]


def test_split_gives_an_empty_part_no_rows_after_the_others_took_all():
    # 4 + 4 + 0 of 8 rows: the test part once divided 0 by the 0 rows left
    ds = synthetic_dataset(classes=2, samples_per_class=4, dimensions=3, separation=3.0)
    train, validation, test = split(ds, SplitSpec((0.5, 0.499999999999, 0.000000000001)))
    assert (len(train), len(validation), len(test)) == (4, 4, 0)
    assert np.bincount(train.labels).tolist() == np.bincount(validation.labels).tolist() == [2, 2]
    assert test.samples.shape == (0, 3) and test.labels.shape == (0,)
    # an empty part before the others leaves their rows as they were
    leading = split(ds, SplitSpec((0.000000000001, 0.5, 0.499999999999)))
    for a, b in zip((test, train, validation), leading, strict=True):
        assert np.array_equal(a.labels, b.labels) and np.array_equal(a.samples, b.samples)

import re
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopower.config import KEY_TYPES, AppConfig, DataConfig, load_config, parse_config
from evopower.data import SplitSpec, split, synthetic_dataset
from evopower.errors import ConfigError, DataError
from evopower.evolution import mode_config
from evopower.network import DTYPE

ROOT = Path(__file__).resolve().parents[1]

KEYS = st.one_of(
    st.sampled_from(sorted(KEY_TYPES)),
    st.sampled_from(sorted(KEY_TYPES)).map(lambda key: key + "_x"),
    st.text(max_size=12),
)
VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309", "", "f3", "idx", "dense_only"]),
    st.integers().map(str),
    st.sampled_from([2**64, 10**400, -(10**400)]).map(str),
    st.floats().map(repr),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(KEYS, VALUES, max_size=8))
def test_from_flat_raises_only_config_error(flat):
    try:
        AppConfig.from_flat(flat)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.tuples(KEYS, VALUES).map(" = ".join), st.text(max_size=30)),
                max_size=8))
def test_parse_config_raises_only_config_error(lines):
    try:
        flat = parse_config("\n".join(lines))
    except ConfigError:
        return
    try:
        AppConfig.from_flat(flat)
    except ConfigError:
        pass


# an infinite budget would reach int() when the epoch count is derived
FINITE_KEYS = {
    "evolution.default_train_budget",
    "evolution.train_longer_increment",
    "evolution.max_train_budget",
}


@pytest.mark.parametrize("key", [k for k, kind in KEY_TYPES.items() if kind is float])
def test_nan_float_keys_are_rejected(key):
    if key.startswith("data."):
        # data settings are checked when the dataset is built
        with pytest.raises(DataError):
            AppConfig.from_flat({key: "nan"}).data.load()
    else:
        for value in ("nan", "inf") if key in FINITE_KEYS else ("nan",):
            with pytest.raises(ConfigError):
                AppConfig.from_flat({key: value})


def test_readme_table_lists_every_key_with_its_default():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, flags=re.M)
    table = {key: "" if default == "—" else default for key, default in rows}
    assert set(table) == set(KEY_TYPES) == set(AppConfig().to_flat())
    assert AppConfig.from_flat(table).to_flat() == AppConfig().to_flat()


def test_desk_fingerprints_keep_existing_checkpoints_valid():
    app = load_config(ROOT / "configs" / "desk.cfg")
    assert (mode_config(app.evolution, "baseline").fingerprint()
            == "dd1e3b95e16eda9e27a1f2fa3fa6342fa071116416c50b83eaecbec0ded4a813")
    assert (mode_config(app.evolution, "proposed").fingerprint()
            == "6113a9ad0f0ef589d2120e45be354b4f4fa8dfc5cf3c9c48d2a8cbbcc5a82fb6")


def test_huge_module_count_builds_nothing():
    # a count is one int: parsing it allocates no per-module objects
    start = time.perf_counter()
    app = AppConfig.from_flat({"genome.modules": str(10**8)})
    assert app.evolution.genome.modules == 10**8
    assert time.perf_counter() - start < 1.0
    assert AppConfig.from_flat(app.to_flat()).to_flat() == app.to_flat()


# the idx-baseline benchmark task: 10 classes x 100 samples of 784 values
IDX_SHAPED = dict(classes=10, samples_per_class=100, dimensions=784, seed=1)


def idx_data_config(tmp_path):
    """A DataConfig over 36 random 4x4 images of 3 classes."""
    rng = np.random.default_rng(0)
    (tmp_path / "images.idx").write_bytes(
        struct.pack(">IIII", 0x803, 36, 4, 4) + rng.integers(0, 256, 36 * 16, np.uint8).tobytes())
    (tmp_path / "labels.idx").write_bytes(
        struct.pack(">II", 0x801, 36) + bytes(i % 3 for i in range(36)))
    return DataConfig(kind="idx", train_images=str(tmp_path / "images.idx"),
                      train_labels=str(tmp_path / "labels.idx"),
                      subset_train=20, subset_validation=8, subset_test=6)


@pytest.mark.parametrize("kind", ["idx-shaped", "clusters", "idx"])
def test_load_is_the_float64_split_cast_afterwards(tmp_path, kind):
    data = {
        "idx-shaped": lambda: DataConfig(**IDX_SHAPED),
        "clusters": lambda: DataConfig(classes=4, samples_per_class=30, dimensions=8,
                                       clusters_per_class=2, seed=3, split_seed=2),
        "idx": lambda: idx_data_config(tmp_path),
    }[kind]()
    raw = data.load_raw()
    assert raw.samples.dtype == np.float64
    if data.kind == "synthetic":
        fractions = (data.fraction_train, data.fraction_validation, data.fraction_test)
    else:
        counts = (data.subset_train, data.subset_validation, data.subset_test)
        fractions = tuple(c / len(raw) for c in counts)
    want = split(raw, SplitSpec(fractions, data.split_seed))
    task = data.load()
    for held, part in zip((task.train, task.validation, task.test), want, strict=True):
        assert held.samples.dtype == DTYPE
        assert held.samples.tobytes() == part.samples.astype(DTYPE).tobytes()
        assert np.array_equal(held.labels, part.labels)
        assert held.source == part.source


def test_idx_split_task_takes_exact_counts():
    ds = synthetic_dataset(classes=10, samples_per_class=60, dimensions=4, separation=2.0, seed=15)
    data = DataConfig(kind="idx", train_images="images.idx", train_labels="labels.idx",
                      subset_train=200, subset_validation=50, subset_test=50, split_seed=6)
    task = data.split_task(ds)
    tr, va, te = task.train, task.validation, task.test
    assert (len(tr), len(va), len(te)) == (200, 50, 50)
    assert np.bincount(tr.labels, minlength=10).tolist() == [20] * 10
    assert np.bincount(va.labels, minlength=10).tolist() == [5] * 10
    assert np.bincount(te.labels, minlength=10).tolist() == [5] * 10
    data.subset_train = 600
    with pytest.raises(DataError, match="requested 700 samples from a dataset of 600"):
        data.split_task(ds)
    # an empty IDX file once divided the counts by its 0 rows
    data.subset_train = data.subset_validation = data.subset_test = 0
    with pytest.raises(DataError, match="requested 0 samples from a dataset of 0"):
        data.split_task(ds.take(np.zeros(0, dtype=int)))


def test_idx_shaped_load_keeps_one_float64_copy_at_a_time():
    data = DataConfig(**IDX_SHAPED)
    tracemalloc.start()
    try:
        task = data.load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 6.27 MB float64 dataset plus its float32 cast; a second float64
    # copy (a shuffle by fancy indexing) or a float64 split would pass 12 MB
    assert task.train.samples.dtype == DTYPE
    assert peak <= 10.5e6, f"peak {peak / 1e6:.2f} MB"

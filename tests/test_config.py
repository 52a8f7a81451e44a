import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopower.config import KEY_TYPES, AppConfig, load_config, parse_config
from evopower.errors import ConfigError, DataError
from evopower.evolution import mode_config

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

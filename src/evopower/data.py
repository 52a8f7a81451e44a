"""Datasets: IDX loading, synthetic blob tasks, deterministic splits.

IDX files follow the classic big-endian layout: images carry magic
0x00000803 with (count, rows, cols) dimensions and one byte per pixel;
labels carry magic 0x00000801 with a count and one byte per label.
Gzipped files are detected by signature and decompressed transparently.
Pixels are scaled to [0, 1] by division by 255 and flattened.

Synthetic tasks are isotropic Gaussian blobs (unit standard deviation)
whose centers sit on coordinate axes ``separation`` apart, optionally
with several clusters per class so classes can be multi-modal; values
are min-max scaled to [0, 1] like pixel data.

Splits are computed from fractions with exact global sizes
(floor of fraction times N); the stratified variant distributes each
split's quota across classes by largest remainder, keeping every split
balanced within one sample per class.  Leftover samples are dropped.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
GZIP_SIGNATURE = b"\x1f\x8b"


@dataclass
class Dataset:
    samples: np.ndarray  # (N, D) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64
    class_count: int
    source: str

    def __len__(self) -> int:
        return self.samples.shape[0]

    def take(self, indices: np.ndarray, source_suffix: str = "") -> "Dataset":
        return Dataset(
            self.samples[indices],
            self.labels[indices],
            self.class_count,
            self.source + source_suffix,
        )


def _read_maybe_gzip(path) -> bytes:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if raw[:2] == GZIP_SIGNATURE:
        try:
            return gzip.decompress(raw)
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise DataError(f"{path}: corrupt gzip data: {exc}")
    return raw


def _check_magic(blob: bytes, expected: int, path) -> None:
    if len(blob) < 4:
        raise DataError(f"{path}: truncated header")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != expected:
        raise DataError(f"{path}: bad magic 0x{magic:08x}, expected 0x{expected:08x}")


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label pair into a flat [0,1]-scaled dataset."""
    img_blob = _read_maybe_gzip(images_path)
    _check_magic(img_blob, IMAGES_MAGIC, images_path)
    if len(img_blob) < 16:
        raise DataError(f"{images_path}: truncated image header")
    count, rows, cols = struct.unpack_from(">III", img_blob, 4)
    if rows * cols > np.iinfo(np.intp).max:
        raise DataError(f"{images_path}: {rows}x{cols} images exceed the largest array dimension")
    expected = 16 + count * rows * cols
    if len(img_blob) != expected:
        raise DataError(
            f"{images_path}: expected {expected} bytes for {count} images of {rows}x{cols}, "
            f"got {len(img_blob)}"
        )
    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16)
    samples = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0

    lbl_blob = _read_maybe_gzip(labels_path)
    _check_magic(lbl_blob, LABELS_MAGIC, labels_path)
    if len(lbl_blob) < 8:
        raise DataError(f"{labels_path}: truncated label header")
    (label_count,) = struct.unpack_from(">I", lbl_blob, 4)
    if len(lbl_blob) != 8 + label_count:
        raise DataError(
            f"{labels_path}: expected {8 + label_count} bytes for {label_count} labels, "
            f"got {len(lbl_blob)}"
        )
    if label_count != count:
        raise DataError(f"{count} images but {label_count} labels")
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, offset=8).astype(np.int64)
    class_count = int(labels.max()) + 1 if label_count else 0
    return Dataset(samples, labels, class_count, source=Path(images_path).name)


def synthetic_dataset(
    classes: int,
    samples_per_class: int,
    dimensions: int,
    separation: float,
    seed: int = 0,
    clusters_per_class: int = 1,
) -> Dataset:
    """Gaussian blob classification task, deterministic per seed."""
    if classes < 1 or samples_per_class < 1 or dimensions < 1 or clusters_per_class < 1:
        raise DataError("classes, samples_per_class, dimensions, clusters_per_class must be >= 1")
    if not separation >= 0:
        raise DataError(f"separation must be >= 0, got {separation}")
    rng = np.random.default_rng(seed)
    # each cluster is drawn into its rows of one array and shifted and
    # scaled there: the bits of rng.normal(0, 1, size) + center, stacked
    # and min-max scaled out of place, without the copies
    samples = np.empty((classes * samples_per_class, dimensions))
    labels = np.repeat(np.arange(classes, dtype=np.int64), samples_per_class)
    base, remainder = divmod(samples_per_class, clusters_per_class)
    start = 0
    for center_index in range(classes * clusters_per_class):
        n = base + (center_index % clusters_per_class < remainder)
        center = np.zeros(dimensions)
        center[center_index % dimensions] = (center_index // dimensions + 1) * separation
        block = samples[start : start + n]
        rng.standard_normal(out=block)
        block += center
        start += n
    lo, hi = samples.min(), samples.max()
    if hi > lo:
        samples -= lo
        samples /= hi - lo
    order = rng.permutation(samples.shape[0])
    return Dataset(samples[order], labels[order], classes, source=f"synthetic(seed={seed})")


@dataclass
class SplitSpec:
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0
    stratified: bool = True

    def validate(self) -> None:
        if len(self.fractions) != 3:
            raise DataError(f"need 3 fractions, got {len(self.fractions)}")
        if not all(f > 0 for f in self.fractions):
            raise DataError(f"fractions must be positive, got {self.fractions}")
        if not sum(self.fractions) <= 1.0 + 1e-9:
            raise DataError(f"fractions sum to {sum(self.fractions)}, more than 1")


def _largest_remainder(targets: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation whose sum is ``total``, closest to ``targets``."""
    base = np.floor(targets).astype(int)
    short = total - base.sum()
    if short > 0:
        order = np.argsort(-(targets - base), kind="stable")
        base[order[:short]] += 1
    return base


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint (train, validation, test) subsets; leftovers dropped."""
    spec.validate()
    n = len(ds)
    sizes = [int(np.floor(f * n + 1e-9)) for f in spec.fractions]
    if sum(sizes) > n:
        raise DataError(f"split sizes {sizes} exceed dataset size {n}")
    rng = np.random.default_rng(spec.seed)
    if not spec.stratified:
        order = rng.permutation(n)
        bounds = np.cumsum([0] + sizes)
        parts = [order[bounds[i] : bounds[i + 1]] for i in range(3)]
    else:
        pools = []
        for c in range(ds.class_count):
            idx = np.flatnonzero(ds.labels == c)
            pools.append(idx[rng.permutation(idx.shape[0])])
        remaining = np.array([p.shape[0] for p in pools])
        cursors = np.zeros(ds.class_count, dtype=int)
        parts = []
        for size in sizes:
            # quotas proportional to what each class still has to give
            quota = _largest_remainder(remaining * (size / remaining.sum()), size)
            took = []
            for c in range(ds.class_count):
                want = quota[c]
                if want > remaining[c]:
                    raise DataError(
                        f"class {c} has only {remaining[c]} samples left, cannot allocate {want}"
                    )
                took.append(pools[c][cursors[c] : cursors[c] + want])
                cursors[c] += want
                remaining[c] -= want
            parts.append(np.concatenate(took) if took else np.zeros(0, dtype=int))
    names = ("/train", "/validation", "/test")
    return tuple(ds.take(np.sort(p), suffix) for p, suffix in zip(parts, names))


def desk_subset(
    ds: Dataset,
    counts: tuple[int, int, int] = (2000, 500, 500),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified fixed-size subsets, the desk-scale experiment default."""
    n = len(ds)
    if sum(counts) > n:
        raise DataError(f"requested {sum(counts)} samples from a dataset of {n}")
    fractions = tuple(c / n for c in counts)
    return split(ds, SplitSpec(fractions=fractions, seed=seed, stratified=True))

"""Run a block with numpy's OpenBLAS on one thread.

Two reasons, both measured with numpy 2.4's bundled OpenBLAS 0.3.31 on
a 2-vCPU VM:

* OpenBLAS sums some GEMMs in an order that depends on its thread
  count, so the last bits of a trained network, and of its loss,
  depended on the machine's core count.  The depth of the sum alone
  does not predict which: 784-input layers are affected, and so is
  training at the desk shapes (8 inputs, widths up to 256): a desk
  network retrained in float64 on one and on two threads differed by up
  to 5.6e-17 in its weights.  On one thread they do not.
* It hands every GEMM above about 2.6e5 multiply-adds to a thread pool
  whose threads spin between calls.  An evolution run interleaves those
  GEMMs with many short numpy and Python steps; on one thread the
  150-generation ``perfbench`` workload ran a few percent faster on
  half the CPU time, and its run-to-run spread was smaller.  Training
  784-input networks, whose large first-layer GEMMs the pool does speed
  up, took about 20% longer.

Without a loaded OpenBLAS (another BLAS, or no ``/proc/self/maps``)
:func:`one_blas_thread` changes nothing.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np  # noqa: F401  (loads numpy's BLAS before the lookup below)

# (getter, setter) symbol pairs of numpy's OpenBLAS: the 64-bit-integer
# builds of numpy 2 and 1 wheels, then a system library.  scipy's wheels
# load a 32-bit-integer scipy_openblas that numpy never calls.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_thread_control():
    """(get, set) of the loaded OpenBLAS thread count, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    for get_name, set_name in _SYMBOLS:
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


_THREAD_CONTROL = _find_thread_control()


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count, or None without OpenBLAS."""
    return None if _THREAD_CONTROL is None else int(_THREAD_CONTROL[0]())


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one BLAS thread, then restore the count it had."""
    if _THREAD_CONTROL is None:
        yield
        return
    get, set_ = _THREAD_CONTROL
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)

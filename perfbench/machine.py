"""The machine a result was measured on, recorded next to the result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_GETTERS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[Path(path).name] = int(getter())
                break
    return out


def filesystem(path) -> str:
    """Type of the filesystem holding ``path``: the longest mount point
    prefix in /proc/self/mounts."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1].encode().decode("unicode_escape")
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def git_sha(root) -> str:
    """HEAD of a git checkout, read without running git; "unknown" in an
    exported tree."""
    git = Path(root, ".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def src_lines(root) -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted(Path(root, "src").rglob("*.py"))
    )


def machine_info(root, out_dir) -> dict:
    """Called in a repetition process after numpy and scipy are loaded."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_sha": git_sha(root),
        "out_fs": filesystem(out_dir),
        "src_lines": src_lines(root),
    }

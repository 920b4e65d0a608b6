"""Environment stamp recorded with every benchmark result."""

import ctypes
import os
import platform
import subprocess
from pathlib import Path

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _blas_threads():
    """Thread count reported by the BLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (idx / "size").read_text().strip()
            )
        except OSError:
            continue
    return model, caches


def _git_commit(root):
    """HEAD of the repository rooted exactly at ``root``, if it is one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != Path(root).resolve():
        return "unknown (not a git checkout)"
    return lines[1]


def environment(root, seed, blas_vars):
    import numpy as np

    import reldep

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model, caches = _cpu()
    return {
        "backend": reldep.backend_name(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_pin": {k: os.environ.get(k) for k in blas_vars},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": model,
        "caches": caches,
        "commit": _git_commit(root),
        "seed": seed,
    }

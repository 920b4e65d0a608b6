import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reldep
from reldep.dataset import Sample
from reldep.kernels import KernelSpec

from oracles import gaussian_gram

# The kernels of ``random_pair``'s x and y.
BANDWIDTHS = (1.3, 0.8)
PAIR_SPECS = tuple(KernelSpec(bandwidth=b) for b in BANDWIDTHS)
LINEAR = KernelSpec(family="linear")


def blas_thread_outputs(snippet):
    """Stdout of the Python ``snippet`` run in a child process with 1 and with 2 OpenBLAS threads.

    The BLAS reads its thread count once, when NumPy loads it, so each
    count needs its own process.
    """
    src = str(Path(reldep.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", snippet], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    return outs


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_pair(rng, m, d=3):
    """Seeded samples x and y of m rows, for the kernels ``PAIR_SPECS``."""
    return Sample(rng.standard_normal((m, d)), "x"), Sample(rng.standard_normal((m, d)), "y")


def oracle_grams(*samples):
    """The oracles' dense Grams of ``random_pair`` samples, under ``BANDWIDTHS``."""
    return tuple(gaussian_gram(s.data, b) for s, b in zip(samples, BANDWIDTHS))


def constant_sample(m):
    """m equal rows of ones, whose ``LINEAR`` Gram is 1 off the diagonal."""
    return Sample(np.ones((m, 1)), "const")


def unfolded_tile(v, i0, i1, j0, j1):
    """v's squared-distance tile as ||a||^2 + ||b||^2 - 2<a, b>, the 2 applied after the GEMM.

    The same padded GEMM shapes as ``_backend._kernel_tile``, so each pair
    gets the bits it would have had without the doubled rows; no clamp.
    """
    h, w = i1 - i0, j1 - j0
    rows_i, rows_j = slice(i0, i0 + h + -h % 8), slice(j0, j0 + w + -w % 8)
    a, b = v.x[rows_i], v.x[rows_j].copy()
    return v.norms[rows_i] @ v.norms[rows_j, ::-1].T - 2.0 * (a @ b.T)

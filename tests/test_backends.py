"""Equivalence of the compiled core and the NumPy fallback.

Both backends are imported directly (the dispatch in reldep._backend picks
one for the library, but here we compare them side by side).  Summation
order differs between the two, so comparisons use tight-but-not-bitwise
tolerances; distance computation additionally differs by algorithm (direct
differences vs norm expansion), which the pairwise tolerance reflects.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reldep
from reldep import _backend, _core_numpy

try:
    from reldep import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled core not built")


def _gaussian(d2, sigma):
    return np.exp(d2 * (-0.5 / (sigma * sigma)))


def _pair(rng, m, d):
    x = rng.standard_normal((m, d))
    k = _gaussian(_core_numpy.pairwise_sq_dists(x), 1.1)
    l = _gaussian(_core_numpy.pairwise_sq_dists(rng.standard_normal((m, d))), 0.7)
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(l, 0.0)
    return k, l


class TestNumpyBackendBasics:
    def test_pairwise_matches_direct_loop(self, rng):
        x = rng.standard_normal((12, 3))
        d2 = _core_numpy.pairwise_sq_dists(x)
        for i in range(12):
            for j in range(12):
                direct = float(((x[i] - x[j]) ** 2).sum())
                assert d2[i, j] == pytest.approx(direct, abs=1e-10)

    def test_order_stats_match_sorting(self, rng):
        for m in (3, 4, 7, 10):
            d2 = _core_numpy.pairwise_sq_dists(rng.standard_normal((m, 2)))
            pool = np.sort(d2[np.triu_indices(m, k=1)])
            for k1, k2 in [(0, 0), (0, len(pool) - 1), (len(pool) // 2 - 1, len(pool) // 2)]:
                if k1 < 0:
                    continue
                lo, hi = _core_numpy.sq_distance_order_stats(d2, k1, k2)
                assert lo == pytest.approx(pool[k1], rel=1e-15)
                assert hi == pytest.approx(pool[k2], rel=1e-15)


@needs_compiled
class TestCompiledMatchesNumpy:
    def test_pairwise(self, rng):
        for m, d in [(4, 1), (17, 3), (60, 5)]:
            x = rng.standard_normal((m, d))
            a = _core_numpy.pairwise_sq_dists(x)
            b = _core.pairwise_sq_dists(x)
            assert np.allclose(a, b, rtol=1e-10, atol=1e-10)
            assert np.array_equal(b, b.T)

    def test_order_stats(self, rng):
        for m in (4, 9, 16):
            d2 = _core.pairwise_sq_dists(rng.standard_normal((m, 2)))
            n = m * (m - 1) // 2
            for k1, k2 in [(0, 0), (n // 2 - 1, n // 2), (n - 1, n - 1)]:
                a = _core_numpy.sq_distance_order_stats(d2, k1, k2)
                b = _core.sq_distance_order_stats(d2, k1, k2)
                assert a == b

    def test_reductions(self, rng):
        for m in (4, 25, 80):
            k, l = _pair(rng, m, 3)
            a = _core_numpy.hsic_h_reductions(k, l)
            b = _core.hsic_h_reductions(k, l)
            for va, vb in zip(a, b):
                assert np.allclose(va, vb, rtol=1e-11, atol=1e-13)


def _run_child(code, backend):
    """Run ``code`` in a fresh interpreter whose only setting is RELDEP_BACKEND.

    PYTHONPATH points at the directory that holds the ``reldep`` this suite
    imported, so the child imports the same package under
    ``PYTHONPATH=src`` and after ``pip install -e .``.  ``cwd="/"`` keeps a
    ``reldep/`` directory in the working tree from shadowing it.
    """
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(reldep.__file__).resolve().parent.parent),
            "RELDEP_BACKEND": backend,
        },
        cwd="/",
    )


class TestDispatch:
    def test_active_backend_is_sane(self):
        requested = os.environ.get("RELDEP_BACKEND", "auto").lower()
        if requested == "auto":
            requested = "compiled" if _core is not None else "python"
        assert _backend.backend_name() == requested

    def test_env_var_forces_python(self):
        # A stand-in compiled module is registered first, so "auto" would
        # pick it: the pin is observable even where _core is not built.
        code = (
            "import sys, types; "
            "stub = types.ModuleType('reldep._core'); "
            "stub.BACKEND_NAME = 'compiled'; "
            "sys.modules['reldep._core'] = stub; "
            "import reldep._backend as b; print(b.backend_name())"
        )
        out = _run_child(code, "python")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"

    def test_unknown_env_value_rejected(self):
        out = _run_child("import reldep._backend", "turbo")
        assert out.returncode != 0
        assert "unknown RELDEP_BACKEND value: 'turbo'" in out.stderr, out.stderr

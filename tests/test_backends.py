"""The O(m^2) kernels in reldep._backend against direct computation."""

import numpy as np
import pytest

import reldep
from reldep import _backend


def test_backend_name_is_constant():
    assert reldep.backend_name() == "python"


class TestNumpyBackendBasics:
    def test_pairwise_matches_direct_loop(self, rng):
        x = rng.standard_normal((12, 3))
        d2 = _backend.pairwise_sq_dists(x)
        for i in range(12):
            for j in range(12):
                direct = float(((x[i] - x[j]) ** 2).sum())
                assert d2[i, j] == pytest.approx(direct, abs=1e-10)

    def test_order_stats_match_sorting(self, rng):
        # Duplicate rows put zeros into the pool, which holds no diagonal;
        # m=2 is a pool of one.
        inputs = [rng.standard_normal((m, 2)) for m in (2, 3, 4, 7, 10)]
        dup = rng.standard_normal((6, 2))
        inputs.append(np.vstack([dup, dup[:3]]))
        for x in inputs:
            m = x.shape[0]
            d2 = _backend.pairwise_sq_dists(x)
            pool = np.sort(d2[np.triu_indices(m, k=1)])
            for k1, k2 in [(0, 0), (0, len(pool) - 1), (len(pool) // 2 - 1, len(pool) // 2)]:
                if k1 < 0:
                    continue
                lo, hi = _backend.sq_distance_order_stats(d2, k1, k2)
                assert lo == pool[k1]
                assert hi == pool[k2]

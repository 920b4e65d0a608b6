"""NumPy implementations of the O(m^2) hot kernels.

Distances, the linear Gram, distance order statistics, the in-place
Gaussian map and the HSIC row reductions.  Every m x m matrix is allocated
by ``square_buffer``, which refuses sizes that cannot fit in physical
memory, and is then filled (by the one stripe walker ``_upper_stripes``),
scanned or rewritten in tiles of ``TILE_ROWS`` rows, so each tile's
temporaries stay in cache and no full-size temporary is made.
"""

import os
from functools import lru_cache

import numpy as np

from reldep.dataset import PreconditionError

# Rows per tile of the blocked passes over an m x m matrix.  A multiple of
# 8 keeps BLAS on whole register tiles; 64 rows of a 3200-column matrix
# (1.6 MB) stay in a typical per-core L2 cache.
TILE_ROWS = 64

def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark stamps."""
    return "python"


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def square_buffer(m: int, held: int = 1) -> np.ndarray:
    """Uninitialised m x m float64 buffer, the one allocation point of m x m data.

    ``held`` is how many such matrices the caller keeps at once.  When they
    need more bytes than the machine's physical memory, PreconditionError
    is raised before anything is allocated, instead of an OOM kill later.
    """
    need = 8 * m * m * held
    physical = _physical_memory()
    if physical is not None and need > physical:
        raise PreconditionError(
            f"{held} m x m matrices at m = {m} need {need} bytes, more than the"
            f" {physical} bytes of physical memory"
        )
    return np.empty((m, m))


def _tiles(m: int):
    for t0 in range(0, m, TILE_ROWS):
        yield t0, min(t0 + TILE_ROWS, m)


@lru_cache(maxsize=16)
def _triangle(h: int) -> np.ndarray:
    """Read-only h x h mask of the strict lower triangle."""
    mask = np.tri(h, h, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _zero_diagonal(a: np.ndarray, r0: int, r1: int) -> None:
    """Zero a[i, i] for r0 <= i < r1 of a C-contiguous square array."""
    m = a.shape[0]
    a.reshape(-1)[r0 * (m + 1) : r1 * (m + 1) : m + 1] = 0.0


def _mirror_rows(a: np.ndarray, r0: int, r1: int) -> None:
    """Copy the on/above-diagonal part of rows r0:r1 below the diagonal."""
    tile = a[r0:r1, r0:r1]
    np.copyto(tile, tile.T, where=_triangle(r1 - r0))
    a[r1:, r0:r1] = a[r0:r1, r1:].T


def _upper_stripes(x: np.ndarray, out: np.ndarray):
    """Fill the square ``out`` from the rows of ``x`` (m, d), stripe by stripe.

    Yields ``(t0, t1, blk, inner)``: the caller writes ``blk``, the
    on/above-diagonal part ``out[t0:t1, t0:]``, from ``inner``, the rows'
    inner products over the same columns.  These come from one BLAS call on
    rows zero-padded to a multiple of 8, at every m, so every call covers
    whole BLAS register tiles and each pair's bits do not depend on where
    it falls.  The walker then zeroes the diagonal and mirrors the stripe
    below it, so ``out`` is exactly symmetric whatever the BLAS does at
    tile edges.
    """
    m = x.shape[0]
    x = np.concatenate([x, np.zeros((-m % 8, x.shape[1]))])
    padded_m = x.shape[0]
    work = np.empty(min(padded_m, TILE_ROWS) * padded_m)
    for t0, t1 in _tiles(m):
        rows = min(TILE_ROWS, padded_m - t0)
        inner = work[: rows * (padded_m - t0)].reshape(rows, -1)
        np.matmul(x[t0 : t0 + rows], x[t0:].T, out=inner)
        yield t0, t1, out[t0:t1, t0:], inner[: t1 - t0, : m - t0]
        _zero_diagonal(out, t0, t1)
        _mirror_rows(out, t0, t1)


def pairwise_sq_dists(x: np.ndarray, held: int = 1) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` (m, d).

    Centres each column at its midrange, which leaves every distance
    unchanged, then uses the expansion ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>,
    clipped at zero to kill the tiny negatives the cancellation can produce.
    Without the centring the expansion cancels catastrophically on data far
    from the origin.  The midrange, unlike the mean, does not depend on the
    row order.  A centred squared norm above a quarter of the largest
    float64 could overflow the expansion, so it raises PreconditionError.

    The result fills one ``square_buffer(m, held)`` through
    ``_upper_stripes``: exactly symmetric, zero on the diagonal, and
    permuted exactly when the rows are.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    out = square_buffer(m, held)
    x = x - 0.5 * (x.min(axis=0) + x.max(axis=0))
    sq = np.einsum("ij,ij->i", x, x)
    peak, limit = sq.max(initial=0.0), np.finfo(np.float64).max / 4
    if not peak <= limit:
        raise PreconditionError(
            f"data too large for squared distances: a centred row has squared"
            f" norm {peak:.3g}, above {limit:.3g}; rescale the input"
        )
    for t0, t1, blk, inner in _upper_stripes(x, out):
        np.add(sq[t0:t1, None], sq[None, t0:], out=blk)
        inner *= 2.0
        np.subtract(blk, inner, out=blk)
        np.maximum(blk, 0.0, out=blk)
    return out


def linear_gram(x: np.ndarray, held: int = 1) -> np.ndarray:
    """Zero-diagonal linear Gram <a, b> of the rows of ``x``, by ``_upper_stripes``."""
    x = np.asarray(x, dtype=np.float64)
    out = square_buffer(x.shape[0], held)
    for _, _, blk, inner in _upper_stripes(x, out):
        np.copyto(blk, inner)
    return out


def sq_distance_order_stats(d2: np.ndarray, k1: int, k2: int):
    """k1-th and k2-th smallest squared distance over the unique-pair pool.

    Ranks are 0-based within the m(m-1)/2 unordered pairs, read from the
    strict upper triangle of ``d2``.  A fixed pseudo-random sample of pairs
    brackets both ranks (Floyd & Rivest 1975, "Expected time bounds for
    selection").  One tiled pass over the triangle then counts the pairs
    below the bracket and collects those inside it, and only those are
    partitioned.  A bracket that misses a rank reruns the pass unbounded,
    over the whole pool, so the result is exact either way.
    """
    found = _select_in_bracket(d2, k1, k2, *_sample_bracket(d2, k1, k2))
    return _select_in_bracket(d2, k1, k2, -np.inf, np.inf) if found is None else found


@lru_cache(maxsize=4)
def _sample_pairs(m: int, size: int) -> np.ndarray:
    """Flat indices (i * m + j, i < j) of ``size`` pairs drawn with a fixed seed."""
    rng = np.random.default_rng(0)
    i = rng.integers(0, m, size=size)
    j = rng.integers(0, m - 1, size=size)
    j += j >= i  # uniform over the other m - 1 rows
    flat = np.minimum(i, j) * m + np.maximum(i, j)
    flat.setflags(write=False)
    return flat


def _sample_bracket(d2: np.ndarray, k1: int, k2: int) -> tuple[float, float]:
    """Values [lo, hi] that bracket pool ranks k1 <= k2 with high probability.

    Takes n^(2/3) sampled pairs of the n-pair pool and reads the sample's
    order statistics at the scaled ranks, widened by about five standard
    deviations of a sample rank; a bracket edge beyond the sample is
    infinite.
    """
    m = d2.shape[0]
    n = m * (m - 1) // 2
    size = int(n ** (2.0 / 3.0))
    sample = d2.take(_sample_pairs(m, size))
    gap = int(2.5 * size**0.5) + 1
    lo_rank = k1 * size // n - gap
    hi_rank = (k2 + 1) * size // n + gap
    ranks = [r for r in (lo_rank, hi_rank) if 0 <= r < size]
    if ranks:
        sample.partition(ranks)
    lo = sample[lo_rank] if lo_rank >= 0 else -np.inf
    hi = sample[hi_rank] if hi_rank < size else np.inf
    return float(lo), float(hi)


def _select_in_bracket(d2: np.ndarray, k1: int, k2: int, lo: float, hi: float):
    """Pool order statistics k1 <= k2 if [lo, hi] (lo <= hi) holds both, else None."""
    m = d2.shape[0]
    below = 0
    inside = []
    for t0, t1 in _tiles(m):
        tri = d2[t0:t1, t0:t1][_triangle(t1 - t0)]  # the tile is exactly symmetric
        for v in (tri, d2[t0:t1, t1:]):
            low = v < lo
            below += np.count_nonzero(low)
            keep = v <= hi
            keep ^= low  # v < lo implies v <= hi, so this is lo <= v <= hi
            inside.append(v[keep])
    pool = np.concatenate(inside)
    if not below <= k1 <= k2 < below + pool.size:
        return None
    pool.partition(sorted({k1 - below, k2 - below}))
    return float(pool[k1 - below]), float(pool[k2 - below])


def gaussian_map(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Turn squared distances into the zero-diagonal Gaussian Gram, in place.

    Applies exp(-d2 / (2 sigma^2)) tile by tile, zeroes the diagonal and
    returns the row sums, taken while each tile is still in cache.
    """
    m = d2.shape[0]
    scale = -0.5 / (sigma * sigma)
    row_sums = np.empty(m)
    for t0, t1 in _tiles(m):
        blk = d2[t0:t1]
        blk *= scale
        np.exp(blk, out=blk)
        _zero_diagonal(d2, t0, t1)
        np.sum(blk, axis=1, out=row_sums[t0:t1])
    return row_sums


def hsic_h_reductions(k: np.ndarray, l: np.ndarray, k_row: np.ndarray, l_row: np.ndarray):
    """Single-pass reductions over a pair of zero-diagonal Gram matrices.

    ``k_row`` and ``l_row`` are the matrices' row sums, computed once per
    Gram.  Returns ``(kl_row, k_lrow, l_krow)`` where
    ``kl_row[i] = sum_j K_ij L_ij``, ``k_lrow = K @ l_row`` and
    ``l_krow = L @ k_row``.  The unbiased estimator and its h-vector are
    O(m) reductions of these vectors and the row sums.
    """
    return np.einsum("ij,ij->i", k, l), k @ l_row, l @ k_row

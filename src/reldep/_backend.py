"""NumPy implementations of the O(m^2) hot kernels, streamed in tiles.

Every kernel value comes from one tile function, ``_kernel_tile``: the
squared distances, their Gaussian map or the linear inner products of a
``TILE`` x ``TILE`` block of row pairs.  Two passes walk the upper tiles
(I <= J) of the m x m triangle with it and hold no m x m matrix:

* ``sq_distance_order_stats`` selects exact order statistics of the
  squared distances, for the median heuristic;
* ``hsic_h_reductions`` forms the row sums, the row sums of K o L and the
  matvecs K l_row that the unbiased HSIC estimator and its h-vector need.

Their memory is O(m) plus a few tiles, and at most ``KEEP_BYTES`` of
tiles kept between the two sweeps of ``hsic_h_reductions``.  The dense
fill ``fill_square`` writes the same tiles into one m x m matrix from
``square_buffer``, which refuses sizes that cannot fit in physical
memory; it serves the dense public API and the oracles.
"""

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from reldep.dataset import PreconditionError

# Rows and columns per tile.  Two 256 x 256 float64 tiles (1 MB) stay in
# a typical per-core L2 cache; a multiple of 8 keeps BLAS on whole
# register tiles.
TILE = 256

# Bytes of kernel tiles that hsic_h_reductions keeps from its first sweep
# for its second instead of recomputing them.  A kept tile has the same
# bits as a recomputed one, so this changes time, never results.
KEEP_BYTES = 8 << 20

# Sampled pairs per chunk when the selection bracket is drawn.
_SAMPLE_CHUNK = 1 << 15


def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark stamps."""
    return "python"


@dataclass(frozen=True, eq=False)
class TileRows:
    """One variable's rows, ready for kernel tiles.

    ``x`` holds the m rows zero-padded to a multiple of 8.  With ``norms``,
    the rows (||x_i||^2, 1), the tiles hold squared distances of the rows
    of ``x``, mapped through exp(-d2 / (2 sigma^2)) when ``sigma`` is set;
    without, they hold inner products (the linear kernel).
    """

    x: np.ndarray
    m: int
    norms: np.ndarray | None = None
    sigma: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """(m, d) of the unpadded rows."""
        return self.m, self.x.shape[1]


def _padded(x: np.ndarray) -> np.ndarray:
    """Copy of x with zero rows appended up to a multiple of 8."""
    return np.concatenate([x, np.zeros((-x.shape[0] % 8, x.shape[1]))])


def distance_rows(x: np.ndarray) -> TileRows:
    """Rows of ``x`` (m, d) for squared-distance tiles.

    Centres each column at its midrange, which leaves every distance
    unchanged; the tiles then use the expansion
    ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>, clipped at zero to kill the
    tiny negatives the cancellation can produce.  Without the centring the
    expansion cancels catastrophically on data far from the origin.  The
    midrange, unlike the mean, does not depend on the row order.  A centred
    squared norm above a quarter of the largest float64 could overflow the
    expansion, so it raises PreconditionError before any tile is formed.
    """
    x = np.asarray(x, dtype=np.float64)
    padded = _padded(x - 0.5 * (x.min(axis=0) + x.max(axis=0)))
    sq = np.einsum("ij,ij->i", padded, padded)
    peak, limit = sq.max(initial=0.0), np.finfo(np.float64).max / 4
    if not peak <= limit:
        raise PreconditionError(
            f"data too large for squared distances: a centred row has squared"
            f" norm {peak:.3g}, above {limit:.3g}; rescale the input"
        )
    return TileRows(padded, x.shape[0], np.column_stack([sq, np.ones_like(sq)]))


def linear_rows(x: np.ndarray) -> TileRows:
    """Rows of ``x`` (m, d) for linear-kernel tiles <a, b>."""
    x = np.asarray(x, dtype=np.float64)
    return TileRows(_padded(x), x.shape[0])


def _tiles(m: int):
    """(i0, i1, j0, j1) of the upper tiles I <= J, row by row."""
    starts = range(0, m, TILE)
    for i0 in starts:
        for j0 in starts[i0 // TILE :]:
            yield i0, min(i0 + TILE, m), j0, min(j0 + TILE, m)


@lru_cache(maxsize=16)
def _triangles(h: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only h x h masks of the strict upper triangle and of the rest."""
    rest = np.tri(h, h, 0, dtype=bool)
    upper = ~rest
    for mask in (upper, rest):
        mask.setflags(write=False)
    return upper, rest


def _kernel_tile(v: TileRows, i0: int, i1: int, j0: int, j1: int, out, work) -> np.ndarray:
    """Values of v for the row pairs (i0:i1) x (j0:j1), written into the flat ``out``.

    The inner products come from one BLAS call on the rows from i0 and j0
    zero-padded to a multiple of 8, so every call covers whole BLAS
    register tiles and each pair's bits do not depend on the tile it falls
    in.  ``work`` (as large as ``out``) holds them for distance tiles,
    which are (||a||^2 + ||b||^2) - 2<a, b>.  The sums of squared norms
    come from a BLAS call too, on the rows (||a||^2, 1) and (1, ||b||^2):
    its products are exact, so each sum is the one correctly rounded
    addition, faster than a broadcast add.

    A diagonal tile (i0 == j0) keeps only its strict upper triangle and is
    zero elsewhere, so every unordered pair i < j is in exactly one tile
    once: a tile's row sums go to rows I and its column sums to rows J,
    the diagonal ones included, and the Gram they describe is exactly
    symmetric whatever the BLAS does.
    """
    h, w = i1 - i0, j1 - j0
    rows_i, rows_j = slice(i0, i0 + h + -h % 8), slice(j0, j0 + w + -w % 8)
    a, b = v.x[rows_i], v.x[rows_j]
    if i0 == j0:
        b = b.copy()  # a @ a.T would take NumPy's slower SYRK path
    blk = out[: a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0])
    if v.norms is None:
        np.matmul(a, b.T, out=blk)
    else:
        inner = np.matmul(a, b.T, out=work[: blk.size].reshape(blk.shape))
        np.matmul(v.norms[rows_i], v.norms[rows_j, ::-1].T, out=blk)
        inner *= 2.0
        np.subtract(blk, inner, out=blk)
        np.maximum(blk, 0.0, out=blk)
        if v.sigma is not None:
            blk *= -0.5 / (v.sigma * v.sigma)
            np.exp(blk, out=blk)
    tile = blk[:h, :w]
    if i0 == j0:
        np.copyto(tile, 0.0, where=_triangles(h)[1])
    return tile


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def square_buffer(m: int) -> np.ndarray:
    """Uninitialised m x m float64 buffer, the one allocation point of m x m data.

    When it needs more bytes than the machine's physical memory,
    PreconditionError is raised before anything is allocated, instead of
    an OOM kill later.
    """
    need = 8 * m * m
    physical = _physical_memory()
    if physical is not None and need > physical:
        raise PreconditionError(
            f"an m x m matrix at m = {m} needs {need} bytes, more than the"
            f" {physical} bytes of physical memory"
        )
    return np.empty((m, m))


def fill_square(v: TileRows, out: np.ndarray) -> np.ndarray:
    """Fill the m x m ``out`` with v's tiles and their mirror images.

    ``out`` is exactly symmetric and zero on the diagonal, and holds
    exactly the values the streamed passes see; an input that overflows
    the linear kernel leaves inf there, without a warning.
    """
    out_tile, work = np.empty(TILE * TILE), np.empty(TILE * TILE)
    with np.errstate(over="ignore"):
        for i0, i1, j0, j1 in _tiles(v.m):
            tile = _kernel_tile(v, i0, i1, j0, j1, out_tile, work)
            if i0 == j0:
                np.add(tile, tile.T, out=out[i0:i1, i0:i1])  # x + 0 is x, to the bit
            else:
                out[i0:i1, j0:j1] = tile
                out[j0:j1, i0:i1] = tile.T
    return out


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """m x m squared Euclidean distances between the rows of ``x`` (m, d).

    The distance tiles of ``distance_rows`` in one ``square_buffer``:
    exactly symmetric, zero on the diagonal, and permuted exactly when
    the rows are.
    """
    out = square_buffer(np.shape(x)[0])
    return fill_square(distance_rows(x), out)


def sq_distance_order_stats(v: TileRows, k1: int, k2: int):
    """k1-th and k2-th smallest squared distance over the unique-pair pool.

    ``v`` holds distance rows (no ``sigma``).  Ranks are 0-based within the
    m(m-1)/2 unordered pairs.  A fixed pseudo-random sample of pairs
    brackets both ranks (Floyd & Rivest 1975, "Expected time bounds for
    selection").  One pass over the upper distance tiles then counts the
    pairs below the bracket and those tied with either edge, and collects
    only those strictly inside it, which alone are partitioned.  A bracket
    that misses a rank reruns the pass unbounded, over the whole pool, so
    the result is exact either way.
    """
    found = _select_in_bracket(v, k1, k2, *_sample_bracket(v, k1, k2))
    return _select_in_bracket(v, k1, k2, -np.inf, np.inf) if found is None else found


@lru_cache(maxsize=4)
def _sample_pairs(m: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, j), i < j, of ``size`` pairs drawn with a fixed seed."""
    rng = np.random.default_rng(0)
    i = rng.integers(0, m, size=size)
    j = rng.integers(0, m - 1, size=size)
    j += j >= i  # uniform over the other m - 1 rows
    pairs = np.minimum(i, j), np.maximum(i, j)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _sample_bracket(v: TileRows, k1: int, k2: int) -> tuple[float, float]:
    """Values [lo, hi] that bracket pool ranks k1 <= k2 with high probability.

    Takes n^(2/3) sampled pairs of the n-pair pool and reads the sample's
    order statistics at the scaled ranks, widened by about five standard
    deviations of a sample rank; a bracket edge beyond the sample is
    infinite.  The sampled distances are taken directly, in chunks; the
    bracket only bounds the pass, so their last bits do not matter.
    """
    m = v.m
    n = m * (m - 1) // 2
    size = int(n ** (2.0 / 3.0))
    rows_i, rows_j = _sample_pairs(m, size)
    sample = np.empty(size)
    for c in range(0, size, _SAMPLE_CHUNK):
        diff = v.x[rows_i[c : c + _SAMPLE_CHUNK]] - v.x[rows_j[c : c + _SAMPLE_CHUNK]]
        np.einsum("ij,ij->i", diff, diff, out=sample[c : c + _SAMPLE_CHUNK])
    gap = int(2.5 * size**0.5) + 1
    lo_rank = k1 * size // n - gap
    hi_rank = (k2 + 1) * size // n + gap
    ranks = [r for r in (lo_rank, hi_rank) if 0 <= r < size]
    if ranks:
        sample.partition(ranks)
    lo = sample[lo_rank] if lo_rank >= 0 else -np.inf
    hi = sample[hi_rank] if hi_rank < size else np.inf
    return float(lo), float(hi)


def _select_in_bracket(v: TileRows, k1: int, k2: int, lo: float, hi: float):
    """Pool order statistics k1 <= k2 if [lo, hi] (lo <= hi) holds both, else None.

    One pass over the upper distance tiles counts the values below lo,
    those equal to lo and those equal to hi, and collects only the values
    strictly between.  A rank that lands on an edge is answered from the
    counts, so ties at lo or hi cost no memory, however many there are.
    The equality tests run on each tile's in-bracket values only.
    """
    below = at_lo = at_edges = 0
    inside = []
    out, work = np.empty(TILE * TILE), np.empty(TILE * TILE)
    for i0, i1, j0, j1 in _tiles(v.m):
        d2 = _kernel_tile(v, i0, i1, j0, j1, out, work)
        if i0 == j0:
            d2 = d2[_triangles(i1 - i0)[0]]
        low = d2 < lo
        below += np.count_nonzero(low)
        keep = d2 <= hi
        keep ^= low  # v < lo implies v <= hi, so this is lo <= v <= hi
        edge = d2[keep]
        at_lo += np.count_nonzero(edge == lo)
        strict = edge > lo
        strict &= edge < hi
        part = edge[strict]
        at_edges += edge.size - part.size
        inside.append(part)
    pool = np.concatenate(inside)
    # at_edges - at_lo counts the values equal to hi; none when hi == lo.
    if not below <= k1 <= k2 < below + pool.size + at_edges:
        return None
    ranks = [k - below - at_lo for k in (k1, k2)]
    within = sorted({r for r in ranks if 0 <= r < pool.size})
    if within:
        pool.partition(within)
    return tuple(float(lo if r < 0 else pool[r] if r < pool.size else hi) for r in ranks)


def hsic_h_reductions(*variables: TileRows, pairs):
    """O(m) reductions of the zero-diagonal Grams of ``variables``, from tiles.

    ``pairs`` lists (a, b) index pairs into ``variables``, with K and L the
    Grams of a and b.  Returns ``(row_sums, per_pair)``: ``row_sums[v]`` is
    the row sums of variable v's Gram, and ``per_pair[p]`` is
    ``(kl_row, k_lrow, l_krow)`` with ``kl_row[i] = sum_j K_ij L_ij``,
    ``k_lrow = K @ l_row`` and ``l_krow = L @ k_row``.  The unbiased
    estimator and its h-vector are O(m) functions of these vectors.

    The first sweep over the upper tiles (I, J) forms each variable's tile
    once and adds its row sums to rows I and its column sums to rows J,
    and the same for the products of the paired tiles.  The second forms
    the tiles again and adds K_IJ times the partners' row sums of J to
    rows I and K_IJ' times those of I to rows J, one matrix product per
    variable.  Tiles of the first sweep are kept for the second while they
    fit in ``KEEP_BYTES``.  An input that overflows (a linear kernel on
    huge data) gives inf or nan here, without a warning, for the
    estimator's finiteness check to refuse.
    """
    n, m = len(variables), variables[0].m
    partners = [sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v})
                for v in range(n)]
    row_sums = np.zeros((n, m))
    kl_rows = np.zeros((len(pairs), m))
    work, ones = np.empty(TILE * TILE), np.ones(TILE)
    # One block for the kept tiles: only the pages they use are touched,
    # and one allocation is reused by the allocator from call to call.
    store, used, kept = np.empty(KEEP_BYTES // 8), 0, []
    outs = None

    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1, j0, j1 in _tiles(m):
            h, w = i1 - i0, j1 - j0
            size = n * (h + -h % 8) * (w + -w % 8)  # this step's padded tiles
            keep = used + size <= store.size
            if keep:
                bufs = store[used : used + size].reshape(n, -1)
                used += size
            else:
                outs = np.empty((n, TILE * TILE)) if outs is None else outs
                bufs = outs
            tiles = [_kernel_tile(v, i0, i1, j0, j1, buf, work) for v, buf in zip(variables, bufs)]
            kept.append(tiles if keep else None)
            for v, tile in enumerate(tiles):
                row_sums[v, i0:i1] += tile @ ones[:w]
                row_sums[v, j0:j1] += ones[:h] @ tile
            for p, (a, b) in enumerate(pairs):
                both = np.multiply(tiles[a], tiles[b], out=work[: h * w].reshape(h, w))
                kl_rows[p, i0:i1] += both @ ones[:w]
                kl_rows[p, j0:j1] += ones[:h] @ both

        sums = [np.ascontiguousarray(row_sums[ps].T) for ps in partners]
        products = [np.zeros((m, len(ps))) for ps in partners]
        for (i0, i1, j0, j1), tiles in zip(_tiles(m), kept):
            if tiles is None:
                tiles = [_kernel_tile(v, i0, i1, j0, j1, buf, work) for v, buf in zip(variables, outs)]
            for tile, s, acc in zip(tiles, sums, products):
                acc[i0:i1] += tile @ s[j0:j1]
                acc[j0:j1] += tile.T @ s[i0:i1]

    per_pair = [
        (kl_rows[p], products[a][:, partners[a].index(b)], products[b][:, partners[b].index(a)])
        for p, (a, b) in enumerate(pairs)
    ]
    return row_sums, per_pair

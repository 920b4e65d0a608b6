"""NumPy implementations of the O(m^2) hot kernels, streamed in tiles.

Every kernel value comes from one tile function, ``_kernel_tile``: the
squared distances, their Gaussian map or the linear inner products of a
``TILE`` x ``TILE`` block of row pairs.  Two passes walk the upper tiles
(I <= J) of the m x m triangle with it and hold no m x m matrix:

* ``sq_distance_order_stats`` selects exact order statistics of the
  squared distances, for the median heuristic;
* ``hsic_h_reductions`` forms the row sums, the row sums of K o L and the
  matvecs K l_row that the unbiased HSIC estimator and its h-vector need.

Rounding can leave a squared distance slightly below zero.  The tile
keeps it so, and max(d2, 0) is taken where it is read: in the Gaussian
map, the dense fill and on the selected order statistics.  That changes
no bit, as max(., 0) is monotone.  Memory is O(m) plus a few tiles and
the kept tiles: a variable whose padded upper distance tiles fit in
``KEEP_BYTES // 4`` (m up to 616) keeps them in one block from its median
pass to its sweeps, and other tiles of the first sweep are kept for the
second in what the blocks leave of ``KEEP_BYTES``.  A kept tile has the
bits of one formed anew.  The dense fill ``fill_square`` writes the same
tiles into one m x m matrix from ``square_buffer``, which refuses sizes
that cannot fit in physical memory; it serves the dense API and oracles.
"""

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from reldep.dataset import PreconditionError

# Rows and columns per tile.  Two 256 x 256 float64 tiles (1 MB) stay in
# a typical per-core L2 cache; a multiple of 8 keeps BLAS on whole
# register tiles.
TILE = 256

# Bytes of tiles kept instead of recomputed: a quarter of it for the
# distance tiles of each variable the median pass forms, all of it, less
# those, for what hsic_h_reductions keeps from its first sweep for its
# second.  A kept tile has the same bits as a recomputed one, so this
# changes time, never results; 0 turns keeping off.
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
    without, they hold inner products (the linear kernel).  ``twice`` is 2x
    for the distance GEMM (one more m x d array), or None if not exact.

    ``kept`` holds at most one block: all padded upper distance tiles of
    the rows, left by ``sq_distance_order_stats`` when they fit in
    ``KEEP_BYTES // 4``.  ``hsic_h_reductions`` takes the block and maps it
    in place, so it is used once; ``dataclasses.replace`` (which sets
    ``sigma`` after the median pass) shares it with the new rows.
    """

    x: np.ndarray
    m: int
    norms: np.ndarray | None = None
    sigma: float | None = None
    kept: list = field(default_factory=list, repr=False)
    twice: np.ndarray | None = field(default=None, repr=False)

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
    ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>, whose cancellation can leave
    tiny negatives for the readers to clamp.  Without the centring the
    expansion cancels catastrophically on data far from the origin.  The
    midrange, unlike the mean, does not depend on the row order.  A centred
    squared norm above a quarter of the largest float64 could overflow the
    expansion, so it raises PreconditionError before any tile is formed.

    The rows are stored doubled too, so the tiles' GEMM gives 2<a, b>:
    (2a).b rounds to 2(a.b) unless a partial result is subnormal and
    inexact.  Entries of at least 2^-485 are multiples of 2^-537, whose
    products and sums are multiples of 2^-1074, exact when subnormal; rows
    with a smaller nonzero entry are not doubled.
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
    exact = np.abs(padded[padded != 0.0]).min(initial=1.0) >= 2.0**-485
    return TileRows(padded, x.shape[0], np.column_stack([sq, np.ones_like(sq)]),
                    twice=2.0 * padded if exact else None)


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
def _layout(m: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Where the padded upper tiles of m rows sit in one kept block.

    Returns the start of tile (I, J) by tile row and column, the padded
    height of each tile row and the block's length; the tiles follow
    ``_tiles`` order.
    """
    padded = np.array([h + -h % 8 for h in (min(TILE, m - i0) for i0 in range(0, m, TILE))])
    starts, size = np.zeros((padded.size, padded.size), dtype=np.intp), 0
    for i0, _, j0, _ in _tiles(m):
        starts[i0 // TILE, j0 // TILE] = size
        size += int(padded[i0 // TILE] * padded[j0 // TILE])
    for a in (starts, padded):
        a.setflags(write=False)
    return starts, padded, size


def _kept_tiles(m: int, block: np.ndarray):
    """((i0, i1, j0, j1), padded tile) of a kept block, in ``_tiles`` order."""
    starts, padded, _ = _layout(m)
    for i0, i1, j0, j1 in _tiles(m):
        h, w = padded[i0 // TILE], padded[j0 // TILE]
        at = starts[i0 // TILE, j0 // TILE]
        yield (i0, i1, j0, j1), block[at : at + h * w].reshape(h, w)


@lru_cache(maxsize=16)
def _triangles(h: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only h x h masks of the strict upper triangle and of the rest."""
    rest = np.tri(h, h, 0, dtype=bool)
    upper = ~rest
    for mask in (upper, rest):
        mask.setflags(write=False)
    return upper, rest


def _kernel_tile(v: TileRows, i0, i1, j0, j1, out, work, fill=0.0) -> np.ndarray:
    """Values of v for the row pairs (i0:i1) x (j0:j1), written into the flat ``out``.

    Each BLAS call takes the rows from i0 and j0 zero-padded to a multiple
    of 8, so it covers whole register tiles and a pair's bits do not
    depend on its tile.  A distance tile is (||a||^2 + ||b||^2) - 2<a, b>,
    unclamped, with 2<a, b> from ``v.twice`` in ``work`` (as large as
    ``out``).  The norm sums come from a GEMM on the rows (||a||^2, 1) and
    (1, ||b||^2), whose exact products make each sum one correctly rounded
    addition, faster than a broadcast add.

    A diagonal tile (i0 == j0) keeps only its strict upper triangle and is
    ``fill`` (zero) elsewhere, so every unordered pair i < j is in exactly
    one tile once: a tile's row sums go to rows I and its column sums to
    rows J, the diagonal ones included, and the Gram they describe is
    exactly symmetric whatever the BLAS does.
    """
    h, w = i1 - i0, j1 - j0
    rows_i, rows_j = slice(i0, i0 + h + -h % 8), slice(j0, j0 + w + -w % 8)
    a, b = (v.x if v.twice is None else v.twice)[rows_i], v.x[rows_j]
    if i0 == j0 and v.twice is None:
        b = b.copy()  # a @ a.T would take NumPy's slower SYRK path
    blk = out[: a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0])
    if v.norms is None:
        np.matmul(a, b.T, out=blk)
    else:
        inner = np.matmul(a, b.T, out=work[: blk.size].reshape(blk.shape))
        np.matmul(v.norms[rows_i], v.norms[rows_j, ::-1].T, out=blk)
        if v.twice is None:
            inner *= 2.0
        np.subtract(blk, inner, out=blk)
    return _mapped(v, blk, h, w, i0 == j0, fill)


def _mapped(v: TileRows, blk: np.ndarray, h: int, w: int, diagonal: bool, fill=0.0) -> np.ndarray:
    """The h x w tile of the padded ``blk`` of v's distances or inner products, mapped in place.

    Gaussian rows map the whole padded block through
    exp(-max(d2, 0) / (2 sigma^2)); a diagonal tile is then set to ``fill``
    outside its strict upper triangle.  A kept distance tile goes through
    exactly these operations, so it ends with the bits of a tile formed anew.
    """
    if v.sigma is not None:
        np.maximum(blk, 0.0, out=blk)
        blk *= -0.5 / (v.sigma * v.sigma)
        np.exp(blk, out=blk)
    tile = blk[:h, :w]
    if diagonal:
        np.copyto(tile, fill, where=_triangles(h)[1])
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
    exactly the values the streamed passes see (distances clamped at zero);
    an input that overflows the linear kernel leaves inf there, without a
    warning.
    """
    out_tile, work = np.empty(TILE * TILE), np.empty(TILE * TILE)
    with np.errstate(over="ignore"):
        for i0, i1, j0, j1 in _tiles(v.m):
            tile = _kernel_tile(v, i0, i1, j0, j1, out_tile, work)
            if v.norms is not None and v.sigma is None:
                np.maximum(tile, 0.0, out=tile)
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

    ``v`` holds distance rows (no ``sigma``); ranks are 0-based within the
    m(m-1)/2 unordered pairs.  A fixed pseudo-random sample of pairs
    brackets both ranks (Floyd & Rivest 1975, "Expected time bounds for
    selection"), and one pass over the raw distance tiles selects within
    it (``_select_in_bracket``), clamping the two values at zero: the k-th
    of the clamped pool is the clamp of the k-th of the raw pool.  A miss
    is drawn again from a sample four times larger, under another seed;
    only a second miss reruns the pass unbounded.  The result is exact
    either way.  When the tiles fit in ``KEEP_BYTES // 4`` they are formed
    once, into the block that ``v.kept`` then holds, for every pass.
    """
    _keep_distance_tiles(v)
    for attempt in range(2):
        found = _select_in_bracket(v, k1, k2, *_sample_bracket(v, k1, k2, attempt))
        if found is not None:
            return found
    return _select_in_bracket(v, k1, k2, -np.inf, np.inf)


def _keep_distance_tiles(v: TileRows) -> None:
    """Form v's padded upper distance tiles into one block on ``v.kept`` if it fits KEEP_BYTES // 4.

    The block's places that hold no pair i < j are NaN, which no
    comparison of the selection counts; the kernel map zeroes those that
    its tiles show.
    """
    size = _layout(v.m)[2]
    if v.kept or 8 * size > KEEP_BYTES // 4:
        return
    block, work = np.empty(size), np.empty(TILE * TILE)
    for (i0, i1, j0, j1), blk in _kept_tiles(v.m, block):
        _kernel_tile(v, i0, i1, j0, j1, blk.reshape(-1), work, fill=np.nan)
        blk[i1 - i0 :] = blk[:, j1 - j0 :] = np.nan
    v.kept.append(block)


def _pool_parts(v: TileRows):
    """Arrays of v's pool, NaN outside it: the kept block, else each tile's pairs i < j in turn."""
    if v.kept:
        yield v.kept[0]
        return
    out, work = np.empty(TILE * TILE), np.empty(TILE * TILE)
    for i0, i1, j0, j1 in _tiles(v.m):
        d2 = _kernel_tile(v, i0, i1, j0, j1, out, work)
        yield d2[_triangles(i1 - i0)[0]] if i0 == j0 else d2


@lru_cache(maxsize=4)
def _sample_pairs(m: int, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, j), i < j, of ``size`` pairs drawn with a fixed seed."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, m, size=size)
    j = rng.integers(0, m - 1, size=size)
    j += j >= i  # uniform over the other m - 1 rows
    pairs = np.minimum(i, j), np.maximum(i, j)
    for a in pairs:
        a.setflags(write=False)
    return pairs


@lru_cache(maxsize=4)
def _block_index(m: int, size: int, seed: int) -> np.ndarray:
    """Positions in a kept block of the pairs of ``_sample_pairs``."""
    starts, padded, _ = _layout(m)
    i, j = _sample_pairs(m, size, seed)
    at = starts[i // TILE, j // TILE] + i % TILE * padded[j // TILE] + j % TILE
    at.setflags(write=False)
    return at


def _sample_bracket(v: TileRows, k1: int, k2: int, attempt: int = 0) -> tuple[float, float]:
    """Values [lo, hi] that bracket pool ranks k1 <= k2 with high probability.

    Takes 4^attempt n^(2/3) pairs of the n-pair pool, drawn with the seed
    ``attempt``, and reads the sample's order statistics at the scaled
    ranks, widened by about five standard deviations of a sample rank; a
    bracket edge beyond the sample is infinite.  With a kept block the
    sample reads the pool values there; without, the sampled distances are
    taken directly, in chunks.  The bracket only bounds the pass, so their
    last bits do not matter.
    """
    m = v.m
    n = m * (m - 1) // 2
    size = int(n ** (2.0 / 3.0)) * 4**attempt
    if v.kept:
        sample = v.kept[0][_block_index(m, size, attempt)]
    else:
        rows_i, rows_j = _sample_pairs(m, size, attempt)
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

    One pass over the pool (``_pool_parts``, whose NaN no comparison
    counts) counts the values below lo, those equal to lo and those equal
    to hi, and collects only the values strictly between.  A rank that
    lands on an edge is answered from the counts, so ties at lo or hi cost
    no memory.  ``np.compress`` gathers the in-bracket values, on which
    alone the equality tests run.  The results are clamped at zero, so a
    rank below an edge lo <= 0 is 0, not a miss.
    """
    below = at_lo = at_edges = 0
    inside = []
    for d2 in _pool_parts(v):
        low = d2 < lo
        below += np.count_nonzero(low)
        keep = d2 <= hi
        keep ^= low  # v < lo implies v <= hi, so this is lo <= v <= hi
        edge = np.compress(keep.ravel(), d2)
        at_lo += np.count_nonzero(edge == lo)
        part = edge[(edge > lo) & (edge < hi)]
        at_edges += edge.size - part.size
        inside.append(part)
    pool = np.concatenate(inside)
    # at_edges - at_lo counts the values equal to hi; none when hi == lo.
    if not (below <= k1 or lo <= 0.0) or not k1 <= k2 < below + pool.size + at_edges:
        return None
    ranks = [k - below - at_lo for k in (k1, k2)]
    within = sorted({r for r in ranks if 0 <= r < pool.size})
    if within:
        pool.partition(within)
    return tuple(max(float(lo if r < 0 else pool[r] if r < pool.size else hi), 0.0) for r in ranks)


def hsic_h_reductions(*variables: TileRows, pairs):
    """O(m) reductions of the zero-diagonal Grams of ``variables``, from tiles.

    ``pairs`` lists (a, b) index pairs into ``variables``, with K and L the
    Grams of a and b.  Returns ``(row_sums, per_pair)``: ``row_sums[v]`` is
    the row sums of variable v's Gram, and ``per_pair[p]`` is
    ``(kl_row, k_lrow, l_krow)`` with ``kl_row[i] = sum_j K_ij L_ij``,
    ``k_lrow = K @ l_row`` and ``l_krow = L @ k_row``.  The unbiased
    estimator and its h-vector are O(m) functions of these vectors.

    The first sweep over the upper tiles (I, J) adds each variable's tile
    row sums to rows I and its column sums to rows J, and the same for the
    products of the paired tiles.  The second adds K_IJ times the partners'
    row sums of J to rows I and K_IJ' times those of I to rows J, one
    matrix product per variable.  A kept block (``TileRows.kept``) is given
    up here: the first sweep maps its tiles in place and the second reads
    them, so rows passed again form their tiles anew.  Other tiles of the
    first sweep are kept for the second in what the blocks leave of
    ``KEEP_BYTES``, else formed again.  An input that overflows (a linear
    kernel on huge data) gives inf or nan here, without a warning, for the
    estimator's finiteness check to refuse.
    """
    n, m = len(variables), variables[0].m
    partners = [sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v})
                for v in range(n)]
    row_sums = np.zeros((n, m))
    kl_rows = np.zeros((len(pairs), m))
    work, ones = np.empty(TILE * TILE), np.ones(TILE)
    blocks = [v.kept.pop() if v.kept else None for v in variables]
    own = [None if b is None else _kept_tiles(m, b) for b in blocks]
    fresh = sum(b is None for b in blocks)
    # The other kept tiles share one block, what the variables' own blocks
    # leave of KEEP_BYTES: only the pages they use are touched, and one
    # allocation is reused by the allocator from call to call.
    store = np.empty(max(KEEP_BYTES // 8 - sum(b.size for b in blocks if b is not None), 0))
    used, kept, outs = 0, [], None

    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1, j0, j1 in _tiles(m):
            h, w = i1 - i0, j1 - j0
            size = (h + -h % 8) * (w + -w % 8)  # one padded tile
            keep = used + fresh * size <= store.size
            if not keep and outs is None:
                outs = np.empty((n, TILE * TILE))
            tiles = []
            for v, tiles_v in zip(variables, own):
                if tiles_v is not None:
                    tiles.append(_mapped(v, next(tiles_v)[1], h, w, i0 == j0))
                    continue
                buf = store[used : used + size] if keep else outs[len(tiles)]
                used += size if keep else 0
                tiles.append(_kernel_tile(v, i0, i1, j0, j1, buf, work))
            kept.append([t if keep or o is not None else None for t, o in zip(tiles, own)])
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
            for v, tile in enumerate(tiles):
                if tile is None:
                    tile = _kernel_tile(variables[v], i0, i1, j0, j1, outs[v], work)
                products[v][i0:i1] += tile @ sums[v][j0:j1]
                products[v][j0:j1] += tile.T @ sums[v][i0:i1]

    per_pair = [
        (kl_rows[p], products[a][:, partners[a].index(b)], products[b][:, partners[b].index(a)])
        for p, (a, b) in enumerate(pairs)
    ]
    return row_sums, per_pair

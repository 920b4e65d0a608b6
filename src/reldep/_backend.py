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
no bit, as max(., 0) is monotone.  Memory is the O(m d) rows plus a few
tiles at any width d, and one estimate call's store of ``KEEP_BYTES``:
each median pass keeps its variable's padded upper distance tiles in a
block off the store's front while one fits, and each other variable read
in more than one reduction pass keeps its first tiles, laid out alike, in
an equal share of the rest.  A kept tile has the bits of one formed anew.
The dense fill ``fill_square`` writes the same tiles into one m x m
matrix from ``square_buffer``, which refuses sizes that cannot fit in
physical memory.  No estimator reads it: it and ``pairwise_sq_dists`` stay
only as the tile tests' bit-exact references while the benchmark's tracer
still names them.
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

# Bytes of tiles one estimate call keeps instead of recomputing, in one
# store: the median passes' blocks of distance tiles off its front while
# one fits, and the first tiles of each other variable read in more than
# one reduction pass in an equal share of the rest.  Kept tiles have the
# bits of recomputed ones, so this changes time, never results; 0 is off.
KEEP_BYTES = 8 << 20


def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark stamps."""
    return "python"


@dataclass(frozen=True, eq=False)
class TileRows:
    """One variable's rows, ready for kernel tiles.

    ``x`` holds the m rows zero-padded to a multiple of 8.  With ``norms``,
    the rows (||x_i||^2, 1), the tiles hold squared distances of the rows
    of ``x``, mapped through exp(-d2 / (2 sigma^2)) when ``sigma`` is set;
    without, they hold inner products (the linear kernel).  Only
    ``_kernel_tile`` reads ``twice``: 2x (one m x d array), or None if inexact.

    ``block``, when set, has room for all padded upper distance tiles of
    the rows (``block_size``): ``sq_distance_order_stats`` forms them there
    for every pass, and ``hsic_h_reductions`` maps them in place, so rows
    with a block serve one estimate.
    """

    x: np.ndarray
    m: int
    norms: np.ndarray | None = None
    sigma: float | None = None
    block: np.ndarray | None = field(default=None, repr=False)
    twice: np.ndarray | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        """(m, d) of the unpadded rows."""
        return self.m, self.x.shape[1]


def _padded(x: np.ndarray) -> np.ndarray:
    """Copy of x with zero rows appended up to a multiple of 8."""
    return np.concatenate([x, np.zeros((-x.shape[0] % 8, x.shape[1]))])


def distance_rows(x: np.ndarray, store: np.ndarray | None = None) -> TileRows:
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
    with a smaller nonzero entry are not doubled.  When ``store`` holds
    ``block_size(m)`` floats, the rows' ``block`` is its front.
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
    size = block_size(x.shape[0])
    return TileRows(padded, x.shape[0], np.column_stack([sq, np.ones_like(sq)]),
                    block=store[:size] if store is not None and size <= store.size else None,
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


def block_size(m: int) -> int:
    """Floats in a block of all padded upper tiles of m rows: half of (sum h)^2 + sum h^2."""
    full, last = divmod(m, TILE)
    last += -last % 8
    return ((full * TILE + last) ** 2 + full * TILE * TILE + last * last) // 2


@lru_cache(maxsize=16)
def _layout(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the padded upper tiles of m rows sit in one block, in ``_tiles`` order.

    Returns the start of tile (I, J) by tile row and column, and the padded
    height of each tile row.
    """
    padded = np.array([h + -h % 8 for h in (min(TILE, m - i0) for i0 in range(0, m, TILE))])
    sizes = np.triu(np.outer(padded, padded))
    starts = (sizes.cumsum() - sizes.ravel()).reshape(sizes.shape)
    for a in (starts, padded):
        a.setflags(write=False)
    return starts, padded


def _kept_tiles(m: int, region: np.ndarray):
    """Padded tiles in ``_tiles`` order, placed by ``_layout``, while they fit in ``region``."""
    starts, padded = _layout(m)
    for i0, _, j0, _ in _tiles(m):
        h, w = padded[i0 // TILE], padded[j0 // TILE]
        at = starts[i0 // TILE, j0 // TILE]
        if at + h * w > region.size:
            return
        yield region[at : at + h * w].reshape(h, w)


@lru_cache(maxsize=16)
def _triangles(h: int) -> np.ndarray:
    """Read-only h x h mask of all but the strict upper triangle."""
    rest = np.tri(h, h, 0, dtype=bool)
    rest.setflags(write=False)
    return rest


def _kernel_tile(v: TileRows, i0, i1, j0, j1, out, work) -> np.ndarray:
    """Values of v for the row pairs (i0:i1) x (j0:j1), written into the flat ``out``.

    Each BLAS call takes the rows from i0 and j0 zero-padded to a multiple
    of 8, so it covers whole register tiles and a pair's bits do not
    depend on its tile.  The inner products are GEMMs over ``TILE``
    feature columns at a time, added in column order (Demmel & Nguyen 2013,
    "Fast reproducible floating-point summation"), so their bits do not
    depend on how the BLAS splits a wider product across threads.  A
    distance tile is (||a||^2 + ||b||^2) - 2<a, b>, unclamped, with 2<a, b>
    from ``v.twice`` in ``work`` (as large as ``out``).  The norm sums come
    from a GEMM on the rows (||a||^2, 1) and (1, ||b||^2), whose exact
    products make each sum one correctly rounded addition, faster than a
    broadcast add.  ``_mapped`` finishes the tile.
    """
    h, w = i1 - i0, j1 - j0
    rows_i, rows_j = slice(i0, i0 + h + -h % 8), slice(j0, j0 + w + -w % 8)
    a, b = (v.x if v.twice is None else v.twice)[rows_i], v.x[rows_j]
    if i0 == j0 and v.twice is None:
        b = b.copy()  # a @ a.T would take NumPy's slower SYRK path
    size, shape = a.shape[0] * b.shape[0], (a.shape[0], b.shape[0])
    blk, spare = out[:size].reshape(shape), work[:size].reshape(shape)
    inner, spare = (blk, spare) if v.norms is None else (spare, blk)
    for c in range(0, a.shape[1], TILE):
        part = np.matmul(a[:, c : c + TILE], b[:, c : c + TILE].T, out=spare if c else inner)
        if c:
            inner += part
    if v.norms is not None:
        np.matmul(v.norms[rows_i], v.norms[rows_j, ::-1].T, out=blk)
        if v.twice is None:
            inner *= 2.0
        np.subtract(blk, inner, out=blk)
    return _mapped(v, blk, h, w, i0 == j0)


def _mapped(v: TileRows, blk: np.ndarray, h: int, w: int, diagonal: bool) -> np.ndarray:
    """The h x w tile of the padded ``blk`` of v's distances or inner products, mapped in place.

    Gaussian rows map the whole padded block through
    exp(-max(d2, 0) / (2 sigma^2)).  Where no pair i < j is, a raw distance
    tile (distance rows without ``sigma``: the median pool) then holds NaN,
    which no comparison counts, padding rows and columns included; any
    other tile holds 0, so its sums count each unordered pair once.  A
    diagonal tile is set so in bands of 64 rows: one slice store left of
    each band's diagonal block and a masked copy on that block alone,
    faster than one mask over the whole tile.  A kept distance tile goes
    through exactly these operations, so it ends with the bits of a tile
    formed anew.
    """
    fill = 0.0
    if v.sigma is not None:
        np.maximum(blk, 0.0, out=blk)
        blk *= -0.5 / (v.sigma * v.sigma)
        np.exp(blk, out=blk)
    elif v.norms is not None:
        fill = blk[h:] = blk[:, w:] = np.nan
    tile = blk[:h, :w]
    for b0 in range(0, h, 64) if diagonal else ():
        band = tile[b0 : b0 + 64]
        band[:, :b0] = fill
        np.copyto(band[:, b0 : b0 + 64], fill, where=_triangles(band.shape[0]))
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
                np.fmax(tile, 0.0, out=tile)  # 0 where the raw tile holds NaN
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
    the rows are.  The tile tests' reference; no estimator reads it.
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
    either way.  Rows with a ``block`` have their tiles formed once, into
    it, for every pass; other rows form them pass by pass.
    """
    if v.block is not None:
        work = np.empty(TILE * TILE)
        for (i0, i1, j0, j1), blk in zip(_tiles(v.m), _kept_tiles(v.m, v.block)):
            _kernel_tile(v, i0, i1, j0, j1, blk.reshape(-1), work)
    for attempt in range(2):
        found = _select_in_bracket(v, k1, k2, *_sample_bracket(v, k1, k2, attempt))
        if found is not None:
            return found
    return _select_in_bracket(v, k1, k2, -np.inf, np.inf)


def _pool_parts(v: TileRows):
    """Arrays of v's raw distance tiles (``_mapped``): the kept block, else each tile."""
    if v.block is not None:
        yield v.block
        return
    out, work = np.empty(TILE * TILE), np.empty(TILE * TILE)
    for i0, i1, j0, j1 in _tiles(v.m):
        yield _kernel_tile(v, i0, i1, j0, j1, out, work)


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
    starts, padded = _layout(m)
    i, j = _sample_pairs(m, size, seed)
    at = starts[i // TILE, j // TILE] + i % TILE * padded[j // TILE] + j % TILE
    at.setflags(write=False)
    return at


def _sample_bracket(v: TileRows, k1: int, k2: int, attempt: int = 0) -> tuple[float, float]:
    """Values [lo, hi] that bracket pool ranks k1 <= k2 with high probability.

    Takes 4^attempt n^(2/3) pairs of the n-pair pool, four times as many
    with a kept block, drawn with the seed ``attempt``, and reads the
    sample's order statistics at the scaled ranks, widened by about five
    standard deviations of a sample rank; a bracket edge beyond the sample
    is infinite.  A kept block's pair is one read, so there a larger sample
    that narrows the bracket costs less than the selection pass it saves.
    Without a block the sample forms its pairs from ``v.x`` in chunks of
    one tile's bytes by the pool's expansion (not by exact differences,
    which near-duplicate rows far from the origin would put outside the
    pool's rounding noise), clamped at zero as the pool is where it is
    read.  The bracket only bounds the pass, so its last bits do not matter.
    """
    m = v.m
    n = m * (m - 1) // 2
    size = int(n ** (2.0 / 3.0)) * 4 ** (attempt + (v.block is not None))
    if v.block is not None:
        sample = v.block[_block_index(m, size, attempt)]
    else:
        rows_i, rows_j = _sample_pairs(m, size, attempt)
        sample, chunk = np.empty(size), max(TILE * TILE // v.x.shape[1], 1)
        for c in range(0, size, chunk):
            i, j = rows_i[c : c + chunk], rows_j[c : c + chunk]
            part = sample[c : c + chunk]
            np.einsum("ij,ij->i", np.take(v.x, i, axis=0), np.take(v.x, j, axis=0), out=part)
            part *= -2.0
            part += v.norms[i, 0] + v.norms[j, 0]
    np.maximum(sample, 0.0, out=sample)
    gap = int(2.5 * size**0.5) + 1
    lo_rank = k1 * size // n - gap
    hi_rank = (k2 + 1) * size // n + gap
    _select(sample, (lo_rank, hi_rank))
    lo = sample[lo_rank] if lo_rank >= 0 else -np.inf
    hi = sample[hi_rank] if hi_rank < size else np.inf
    return float(lo), float(hi)


def _select(a: np.ndarray, ranks) -> None:
    """Partition ``a`` in place so that ``a[r]`` is its r-th smallest, for ascending ``ranks``.

    Ranks outside ``a`` are skipped.  One ``partition`` per rank: NumPy 2.4
    selects several ranks in one call several times slower.
    """
    start = 0
    for r in ranks:
        if start <= r < a.size:  # an equal rank is already in place
            a[start:].partition(r - start)
            start = r + 1


def _select_in_bracket(v: TileRows, k1: int, k2: int, lo: float, hi: float):
    """Pool order statistics k1 <= k2 if [lo, hi] (lo <= hi) holds both, else None.

    One pass over the pool (``_pool_parts``) counts the values below lo,
    those equal to lo and those equal to hi, and collects only the values
    strictly between.  A rank that lands on an edge is answered from the
    counts, so ties at lo or hi cost no memory.  ``np.compress`` gathers
    the in-bracket values, on which alone the equality tests run.  The
    results are clamped at zero, so a rank below an edge lo <= 0 is 0, not
    a miss.
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
    _select(pool, ranks)
    return tuple(max(float(lo if r < 0 else pool[r] if r < pool.size else hi), 0.0) for r in ranks)


def hsic_h_reductions(*variables: TileRows, pairs, store: np.ndarray):
    """O(m) reductions of the zero-diagonal Grams of ``variables``, from tiles.

    ``pairs`` lists (a, b) index pairs into ``variables``, with K and L the
    Grams of a and b.  Returns ``(row_sums, per_pair)``: ``row_sums[v]`` is
    the row sums of variable v's Gram, and ``per_pair[p]`` is
    ``(kl_row, k_lrow, l_krow)`` with ``kl_row[i] = sum_j K_ij L_ij``,
    ``k_lrow = K @ l_row`` and ``l_krow = L @ k_row``.  The unbiased
    estimator and its h-vector are O(m) functions of these vectors.

    One loop body walks the upper tiles (I, J) in up to three passes.  A
    variable's first pass adds its tile row sums to rows I and column sums
    to rows J, pass 1 the same for the products of the paired tiles, and its
    last pass K_IJ times its partners' row sums of J to rows I and K_IJ'
    times those of I to rows J.  The hub, the lowest variable in every pair,
    is read in passes 0-2, each other variable in pass 1 alone; with no hub
    each is read in passes 1 and 2.  One read more than once keeps tiles for
    its later passes: its ``block``, which its first pass maps in place, else
    those an equal share of ``store`` holds (``_kept_tiles``).  Overflow (a
    linear kernel on huge data) gives inf or nan here, without a warning,
    for the estimator's finiteness check to refuse.
    """
    n, m = len(variables), variables[0].m
    partners = [sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v})
                for v in range(n)]
    hub = next((v for v in range(n) if pairs and all(v in pair for pair in pairs)), None)
    passes = [range(0 if v == hub else 1, 2 if hub not in (None, v) else 3) for v in range(n)]
    row_sums, kl_rows = np.zeros((n, m)), np.zeros((len(pairs), m))
    products = [np.zeros((m, len(ps))) for ps in partners]
    work, ones = np.empty(TILE * TILE), np.ones(TILE)
    shared = [v.block is None and len(r) > 1 for v, r in zip(variables, passes)]
    share = store.size // max(1, sum(shared))
    kept, outs = [], None
    for v, more in zip(variables, shared):
        region = v.block
        if region is None:
            region, store = store[: share * more], store[share * more :]
        kept.append(list(_kept_tiles(m, region)))

    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(3):
            reading = [v for v in range(n) if p in passes[v]]
            sums = {v: np.ascontiguousarray(row_sums[partners[v]].T)
                    for v in reading if p == passes[v][-1]}
            for t, (i0, i1, j0, j1) in enumerate(_tiles(m) if reading else ()):
                h, w = i1 - i0, j1 - j0
                tiles = {}
                for v in reading:
                    rows, first = variables[v], p == passes[v][0]
                    if t >= len(kept[v]):
                        outs = np.empty((n, TILE * TILE)) if outs is None else outs
                        tiles[v] = _kernel_tile(rows, i0, i1, j0, j1, outs[v], work)
                    elif not first:
                        tiles[v] = kept[v][t][:h, :w]
                    elif rows.block is not None:
                        tiles[v] = _mapped(rows, kept[v][t], h, w, i0 == j0)
                    else:
                        tiles[v] = _kernel_tile(rows, i0, i1, j0, j1, kept[v][t].reshape(-1), work)
                    if first:
                        row_sums[v, i0:i1] += tiles[v] @ ones[:w]
                        row_sums[v, j0:j1] += ones[:h] @ tiles[v]
                    if v in sums:
                        products[v][i0:i1] += tiles[v] @ sums[v][j0:j1]
                        products[v][j0:j1] += tiles[v].T @ sums[v][i0:i1]
                for q, (a, b) in enumerate(pairs if p == 1 else ()):
                    both = np.multiply(tiles[a], tiles[b], out=work[: h * w].reshape(h, w))
                    kl_rows[q, i0:i1] += both @ ones[:w]
                    kl_rows[q, j0:j1] += ones[:h] @ both

    per_pair = [
        (kl_rows[p], products[a][:, partners[a].index(b)], products[b][:, partners[b].index(a)])
        for p, (a, b) in enumerate(pairs)
    ]
    return row_sums, per_pair

"""Pure-numpy reduction kernels.

Every sum follows one canonical floating-point operation order, so results
are bitwise reproducible:

* the input is cut into blocks of ``BLOCK`` values; each block is summed in
  sequence and the exact rounding error of every step is accumulated
  alongside, then added to the block's sum (trailing ragged positions behave
  as literal ``0.0`` terms),
* the per-block totals are combined with a fixed pairwise tree, padded with
  zeros to a power of two (``_tree``).

The error of a step ``t = s + x`` is computed as Knuth's branch-free TwoSum,
``(s - (t - b)) + (x - b)`` with ``b = t - s``.  It is the exact error, so it
equals Neumaier's compensation term bit for bit.

Block totals come from one of two scans, chosen by input size alone; both
give the same bits.  Short in-memory inputs are scanned along each block
(``_along``): the rows are laid out in natural order as ``(..., nb, 1 +
BLOCK)`` blocks that each start with a literal ``0.0``, and the partial
sums, the step errors and the running error are each one whole-array call.
Long inputs, and the ``pompeiu_sum_many`` stream, are scanned across blocks
(``_across``): the rows are laid out as ``(BLOCK, ..., nb)`` block columns
and each step is one pass over the ``j``-th term of every block.
``_ALONG_MAX`` is the measured crossover between them.

``pompeiu_sum_many`` takes each target's range of live cells (its near zone,
in the Pompeiu area).  A step of targets scans only the blocks that meet the
span of its ranges; every other block totals exactly 0.0, which is what its
all-0.0 terms would give, so a range has the bits of the full sum with the
cells outside it dead.
"""

from __future__ import annotations

import numpy as np

BLOCK = 64

# Inputs of at most this many values are scanned along each block.  The
# along scan makes about 10 numpy calls whatever the length, against about
# 450 for the across scan, but ``np.add.accumulate`` is a scalar loop, so
# the across scan wins on long inputs.  ``ordered_dot``, along vs across
# (2-core x86-64 VM, numpy 2.4): 0.21 vs 0.35 ms at 16,384 values, 0.83 vs
# 0.84 ms at 32,768 and 1.65 vs 1.12 ms at 65,536.
_ALONG_MAX = 1 << 15

# Targets per step of pompeiu_sum_many.  It is fixed so that scratch memory
# does not grow with the number of targets: a step of k targets over a span
# of nb blocks needs 16 * k * nb floats (the terms, the division temporaries
# and the scan state) and 64 * k * nb flags, at most 3 MiB for four targets
# over 512x512 cells.  With the near-zone ranges of ``pompeiu_area`` at
# 512x512 (32 targets), steps of 2, 3 and 4 ran alike, and 6 and 8 about 7%
# and 25% slower, since the span of a step grows with its targets.
_TARGET_STEP = 4


def _put(dst, srcs, start: int, stop: int) -> None:
    """Write terms ``start:stop`` of the rows of ``srcs[0]`` (times ``srcs[1]``) into ``dst``.

    ``srcs[1]`` may be one row, broadcast over the rows of ``srcs[0]``."""
    tail = dst.shape[srcs[0].ndim - 1 :]
    views = [x[..., start:stop].reshape(*x.shape[:-1], *tail) for x in srcs]
    if len(views) == 1:
        dst[...] = views[0]
    else:
        np.multiply(*views, out=dst)


def _blocks(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """The rows of ``a`` (times the one row ``b``, when given) as zero-led blocks.

    ``a`` has shape ``(*lead, n)``; the result has shape ``(*lead, nb, 1 +
    BLOCK)`` with ``nb = ceil(n / BLOCK)``.  Block ``k`` of a row holds a
    literal ``0.0`` and then its ``BLOCK`` terms in natural order, with
    zeros past the end of the row.
    """
    *lead, n = a.shape
    full, rem = divmod(n, BLOCK)
    out = np.zeros((*lead, full + (rem > 0), 1 + BLOCK), dtype=np.float64)
    srcs = (a,) if b is None else (a, b)
    _put(out[..., :full, 1:], srcs, 0, full * BLOCK)
    if rem:
        _put(out[..., full, 1 : rem + 1], srcs, full * BLOCK, n)
    return out


def _columns(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Lay the rows of ``a`` (times the one row ``b``, when given) out as block columns.

    ``a`` has shape ``(*lead, n)``; the result has shape ``(BLOCK, *lead, nb)``
    with ``nb = ceil(n / BLOCK)``, holding term ``j`` of block ``k`` of a row
    at ``[j, ..., k]`` and literal zeros past the end of each row.  The
    product ``a * b`` is written straight into the layout, so no full-size
    intermediate is made; strided inputs are read in place.
    """
    *lead, n = a.shape
    full, rem = divmod(n, BLOCK)
    cols = np.empty((BLOCK, *lead, full + (rem > 0)), dtype=np.float64)
    srcs = (a,) if b is None else (a, b)
    _put(np.moveaxis(cols[..., :full], 0, -1), srcs, 0, full * BLOCK)
    if rem:
        _put(np.moveaxis(cols[:rem, ..., full], 0, -1), srcs, full * BLOCK, n)
        cols[rem:, ..., full] = 0.0
    return cols


def _along(blocks: np.ndarray) -> np.ndarray:
    """Block totals of zero-led ``blocks`` (see ``_blocks``), scanned along each block.

    The partial sums are one ``accumulate`` along the last axis; starting
    from the leading ``0.0`` they are the sequential ``s`` of every step,
    signed zeros included.  The step errors are then computed on the
    flattened arrays at once, in place of the terms, so ``blocks`` is
    overwritten.  The "step" into each block's leading zero crosses from the
    previous block; its finite garbage is replaced by ``0.0``, which starts
    the running error of every block, the second ``accumulate``.
    """
    p = np.add.accumulate(blocks, axis=-1)
    flat = p.reshape(-1)
    s, t = flat[:-1], flat[1:]
    e = blocks.reshape(-1)[1:]
    b = t - s
    e -= b  # x - b
    np.subtract(t, b, out=b)
    np.subtract(s, b, out=b)
    e += b  # (s - (t - b)) + (x - b)
    blocks[..., 0] = 0.0
    np.add.accumulate(blocks, axis=-1, out=blocks)
    return p[..., -1] + blocks[..., -1]


def _across(columns, shape: tuple[int, ...]) -> np.ndarray:
    """Block totals, scanned across blocks one block column at a time.

    ``columns`` yields ``BLOCK`` arrays of shape ``shape``; the ``j``-th
    holds term ``j`` of every block.  Each yielded array is consumed before
    the next is requested, so a producer may reuse one buffer.  Returns the
    totals, of shape ``shape``.
    """
    m = int(np.prod(shape))
    s = np.zeros(m)
    c = np.zeros(m)
    t, b, e = np.empty(m), np.empty(m), np.empty(m)
    for col in columns:
        x = col.reshape(m)
        np.add(s, x, out=t)
        np.subtract(t, s, out=b)
        np.subtract(t, b, out=e)
        np.subtract(s, e, out=e)
        np.subtract(x, b, out=b)
        e += b
        c += e
        s, t = t, s
    s += c
    return s.reshape(shape)


def _tree(totals: np.ndarray) -> np.ndarray:
    """Combine the block totals on the last axis with the fixed pairwise tree."""
    *lead, nb = totals.shape
    buf = np.zeros((*lead, 1 << max(nb - 1, 0).bit_length()), dtype=np.float64)
    buf[..., :nb] = totals
    while buf.shape[-1] > 1:
        buf = buf[..., 0::2] + buf[..., 1::2]
    return buf[..., 0]


def _row_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Canonical sum along the last axis of ``a`` (or of ``a * b``)."""
    if a.size <= _ALONG_MAX:
        return _tree(_along(_blocks(a, b)))
    cols = _columns(a, b)
    return _tree(_across(cols, cols.shape[1:]))


def ordered_sums(values: np.ndarray) -> np.ndarray:
    """Canonical sum of every row: along the last axis of ``values``."""
    return _row_sums(np.asarray(values, dtype=np.float64))


def ordered_sum(values: np.ndarray) -> float:
    """Sum a float64 vector in the canonical deterministic order."""
    return float(ordered_sums(np.atleast_1d(values)))


def ordered_dot(weights: np.ndarray, values: np.ndarray) -> float | np.ndarray:
    """Dot product: elementwise multiply, then the canonical sum.

    ``values`` may have leading axes of rows, over which the one row of
    ``weights`` is broadcast: the result is then one dot product per row,
    each with the bits of its own call.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    v = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if w.ndim != 1 or v.shape[-1:] != w.shape:
        raise ValueError("weights must be one row as long as the rows of values")
    sums = _row_sums(v, w)
    return float(sums) if v.ndim == 1 else sums


def _pompeiu_columns(cols, wr, wi, off):
    """Yield the Pompeiu terms of targets ``(wr, wi)`` one block column at a time.

    ``cols`` are the block columns of the centers and of ``v * wt``, over
    the ``nb`` blocks of a window.  ``off[j]``, of shape ``(k, nb)``, is
    true where term ``j`` of a block is off for a target: dead, outside its
    range of live cells or past the end.  Each yielded array has shape ``(k,
    2, nb)``: real and imaginary terms of each of the ``k`` targets, with
    exactly 0.0 where ``off`` holds.  An off cell may divide by zero before
    it is zeroed, so the caller consumes the terms with ``divide`` and
    ``invalid`` errors ignored.
    """
    ccr, cci, cnr, cni = cols
    k, nb = wr.shape[0], ccr.shape[-1]
    wr = wr[:, None]
    wi = wi[:, None]
    term = np.empty((k, 2, nb))
    re = term[:, 0]
    im = term[:, 1]
    dr, di, den, tmp = (np.empty((k, nb)) for _ in range(4))
    for j in range(BLOCK):
        np.subtract(ccr[j], wr, out=dr)
        np.subtract(cci[j], wi, out=di)
        np.multiply(dr, dr, out=den)
        np.multiply(di, di, out=tmp)
        den += tmp
        np.multiply(cnr[j], dr, out=re)
        np.multiply(cni[j], di, out=tmp)
        re += tmp
        re /= den
        np.multiply(cni[j], dr, out=im)
        np.multiply(cnr[j], di, out=tmp)
        im -= tmp
        im /= den
        np.copyto(term, 0.0, where=off[j][:, None, :])
        yield term


def _off_cells(k0: int, k1: int, lo, hi, dead) -> np.ndarray:
    """Which terms of blocks ``k0:k1`` are off for each target, as ``(BLOCK, k, k1 - k0)``.

    A cell is off for target ``t`` outside ``lo[t]:hi[t]`` and at the
    indices ``dead[t]``.
    """
    # term j of window block b is cell (k0 + b) * BLOCK + j, live for target t
    # from block ceil((lo[t] - j) / BLOCK) - k0 up to ceil((hi[t] - j) / BLOCK) - k0
    j = np.arange(BLOCK)[:, None]
    first = -((j - lo) // BLOCK) - k0
    stop = -((j - hi) // BLOCK) - k0
    b = np.arange(k1 - k0)
    off = b < first[..., None]
    off |= b >= stop[..., None]
    owner = np.repeat(np.arange(len(dead)), [d.size for d in dead])
    cells = np.concatenate(dead)
    keep = (cells >= k0 * BLOCK) & (cells < k1 * BLOCK)
    cells = cells[keep]
    off[cells % BLOCK, owner[keep], cells // BLOCK - k0] = True
    return off


def pompeiu_sum_many(
    cr: np.ndarray,
    ci: np.ndarray,
    wt: np.ndarray,
    vr: np.ndarray,
    vi: np.ndarray,
    wr: np.ndarray,
    wi: np.ndarray,
    dead,
    ranges=None,
) -> tuple[np.ndarray, np.ndarray]:
    """``pompeiu_sum`` for the targets ``(wr[t], wi[t])``, ``t < T``.

    ``dead[t]`` holds the indices of the cells that contribute exactly 0.0
    for target ``t``.  ``ranges[t] = (lo, hi)``, when given, is the run
    ``lo:hi`` of cells that target ``t`` sums; the cells outside it
    contribute exactly 0.0 too (no ``ranges`` is every cell).  Returns the
    real and imaginary sums, each of shape ``(T,)``; entry ``t`` has the
    bits ``pompeiu_sum`` gives for that target with its dead and
    out-of-range cells masked.  The centers and ``v * wt`` are laid out in
    block columns once; each step then computes a few targets' terms one
    column at a time, over the blocks that meet the span of their ranges
    only, so the working set stays small and fixed whatever ``T`` is.  The
    other blocks total exactly 0.0, as they would if computed: a 0.0 term
    leaves the TwoSum scan and the tree unchanged.
    """
    cr, ci, wt, vr, vi = (np.asarray(x, dtype=np.float64) for x in (cr, ci, wt, vr, vi))
    wr = np.atleast_1d(np.asarray(wr, dtype=np.float64))
    wi = np.atleast_1d(np.asarray(wi, dtype=np.float64))
    dead = [np.asarray(d, dtype=np.intp).ravel() for d in dead]
    n = cr.size
    n_targets = wr.shape[0]
    if any(x.shape != (n,) for x in (cr, ci, wt, vr, vi)):
        raise ValueError("all cell arrays must have the same length")
    if wr.ndim != 1 or wi.shape != wr.shape or len(dead) != n_targets:
        raise ValueError("wr, wi and dead must have one entry per target")
    if any(d.size and (d.min() < 0 or d.max() >= n) for d in dead):
        raise ValueError("dead cell index out of range")
    if ranges is None:
        lo, hi = np.zeros(n_targets, dtype=np.intp), np.full(n_targets, n, dtype=np.intp)
    else:
        spans = np.asarray(ranges, dtype=np.intp).reshape(-1, 2)
        if spans.shape[0] != n_targets:
            raise ValueError("ranges must have one entry per target")
        lo, hi = spans.T
        if np.any(lo < 0) or np.any(hi > n) or np.any(lo > hi):
            raise ValueError("live cell range out of bounds")
    re = np.zeros(n_targets)
    im = np.zeros(n_targets)
    if n == 0:
        return re, im
    cols = (_columns(cr), _columns(ci), _columns(vr, wt), _columns(vi, wt))
    nb = cols[0].shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, n_targets, _TARGET_STEP):
            b = min(a + _TARGET_STEP, n_targets)
            first, last = int(lo[a:b].min()), int(hi[a:b].max())
            if first >= last:
                continue
            k0, k1 = first // BLOCK, -(-last // BLOCK)
            off = _off_cells(k0, k1, lo[a:b], hi[a:b], dead[a:b])
            window = tuple(c[:, k0:k1] for c in cols)
            terms = _pompeiu_columns(window, wr[a:b], wi[a:b], off)
            totals = np.zeros((b - a, 2, nb))
            totals[..., k0:k1] = _across(terms, (b - a, 2, k1 - k0))
            sums = _tree(totals)
            re[a:b] = sums[:, 0]
            im[a:b] = sums[:, 1]
    return re, im


def pompeiu_sum(
    cr: np.ndarray,
    ci: np.ndarray,
    wt: np.ndarray,
    vr: np.ndarray,
    vi: np.ndarray,
    wr: float,
    wi: float,
    mask: np.ndarray,
) -> tuple[float, float]:
    """Accumulate ``sum(v * wt / (center - w))`` over unmasked cells.

    ``cr, ci``: cell-center coordinates; ``wt``: quadrature weights;
    ``vr, vi``: field values at centers; ``(wr, wi)``: the target point;
    ``mask``: uint8, nonzero entries contribute exactly 0.0.

    Returns the real and imaginary parts as two canonical sums.  The complex
    division is spelled out in real arithmetic, so its rounding is fixed.
    """
    mask = np.asarray(mask)
    if mask.shape != np.shape(cr):
        raise ValueError("all cell arrays must have the same length")
    re, im = pompeiu_sum_many(
        cr, ci, wt, vr, vi, [wr], [wi], [np.flatnonzero(mask)]
    )
    return float(re[0]), float(im[0])

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
give the same bits (``_block_totals``).  Short inputs are scanned along each
block (``_along``): the rows are laid out in natural order as ``(..., nb, 1
+ BLOCK)`` blocks that each start with a literal ``0.0``, and the partial
sums, the step errors and the running error are each one whole-array call.
Long inputs are scanned across blocks (``_across``): the rows are laid out
as ``(BLOCK, ..., nb)`` block columns and each step is one pass over the
``j``-th term of every block.  ``_ALONG_MAX`` is the measured crossover
between them.

``pompeiu_sum`` computes the terms of the cells it is given, one target's
near run in the Pompeiu area, and sums them as a row of their own.
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


def _across(columns: np.ndarray) -> np.ndarray:
    """Block totals of block ``columns`` (see ``_columns``), scanned across blocks.

    Each step is one pass over term ``j`` of every block; returns the
    totals, of shape ``columns.shape[1:]``.
    """
    shape = columns.shape[1:]
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


def _block_totals(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Block totals along the last axis of ``a`` (or of ``a * b``), by the scan its size picks."""
    if a.size <= _ALONG_MAX:
        return _along(_blocks(a, b))
    return _across(_columns(a, b))


def ordered_sums(values: np.ndarray) -> np.ndarray:
    """Canonical sum of every row: along the last axis of ``values``."""
    return _tree(_block_totals(np.asarray(values, dtype=np.float64)))


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
    sums = _tree(_block_totals(v, w))
    return float(sums) if v.ndim == 1 else sums


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

    Returns the real and imaginary parts as two canonical sums of the terms
    of the cells given.  The complex division is spelled out in real
    arithmetic, so its rounding is fixed.
    """
    cr, ci, wt, vr, vi = (np.asarray(x, dtype=np.float64) for x in (cr, ci, wt, vr, vi))
    mask = np.asarray(mask)
    if cr.ndim != 1 or any(x.shape != cr.shape for x in (ci, wt, vr, vi, mask)):
        raise ValueError("all cell arrays must be one row of the same length")
    terms = np.empty((2, cr.size))
    re, im = terms
    nr, ni = vr * wt, vi * wt
    dr, di = cr - wr, ci - wi
    den = dr * dr
    tmp = di * di
    den += tmp
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(nr, dr, out=re)
        re += np.multiply(ni, di, out=tmp)
        re /= den
        np.multiply(ni, dr, out=im)
        im -= np.multiply(nr, di, out=tmp)
        im /= den
    np.copyto(terms, 0.0, where=mask != 0)
    sums = ordered_sums(terms)
    return float(sums[0]), float(sums[1])

"""Pure-numpy reduction kernels.

Every sum follows one canonical floating-point operation order, so results
are bitwise reproducible:

* the input is cut into blocks of ``BLOCK`` values; each block is accumulated
  sequentially with Neumaier compensation (trailing ragged positions behave as
  literal ``0.0`` terms),
* the per-block totals are combined with a fixed pairwise tree, padded with
  zeros to a power of two.

One core, ``_reduce``, sums many rows at once.  It takes the rows laid out
as ``(BLOCK, R*nb)`` block columns, so the ``j``-th term of every block of
every row is one contiguous array and each Neumaier step is one pass over
it; the per-block sequential order, and therefore every row's bits, is the
same as summing the rows one by one.  ``ordered_sums`` lays its rows out
once (``ordered_sum`` and ``ordered_dot`` are its one-row case), and
``pompeiu_sum_many`` computes its terms column by column straight into that
layout.
"""

from __future__ import annotations

import numpy as np

BLOCK = 64

# Targets per step of pompeiu_sum_many.  It is fixed so that scratch memory
# does not grow with the number of targets: at 512x512 cells a step of two
# needs about 1 MB, which stays in a core's L2 cache.
_TARGET_STEP = 2


def _columns(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Lay the rows of ``a`` (times ``b``, when given) out as block columns.

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

    def put(dst, start, stop, shape):
        views = [np.moveaxis(x[..., start:stop].reshape(shape), -1, 0) for x in srcs]
        if b is None:
            dst[...] = views[0]
        else:
            np.multiply(*views, out=dst)

    put(cols[..., :full], 0, full * BLOCK, (*lead, full, BLOCK))
    if rem:
        put(cols[:rem, ..., full], full * BLOCK, n, (*lead, rem))
        cols[rem:, ..., full] = 0.0
    return cols


def _reduce(columns, shape: tuple[int, ...]) -> np.ndarray:
    """The reduction core: canonical sums of rows given as block columns.

    ``shape`` is ``(*lead, nb)``.  ``columns`` yields ``BLOCK`` contiguous
    arrays of that shape; the ``j``-th holds term ``j`` of block ``k`` of
    each row at ``[..., k]``.  Each yielded array is consumed before the next
    is requested, so a producer may reuse one buffer.  Returns the sums,
    shape ``lead``.
    """
    *lead, nb = shape
    if nb == 0:
        return np.zeros(lead, dtype=np.float64)
    m = int(np.prod(shape))
    s = np.zeros(m)
    c = np.zeros(m)
    t = np.empty(m)
    u = np.empty(m)
    v = np.empty(m)
    small = np.empty(m, dtype=bool)
    for col in columns:
        xj = col.reshape(m)
        np.add(s, xj, out=t)
        np.abs(s, out=u)
        np.abs(xj, out=v)
        np.less(u, v, out=small)
        np.subtract(s, t, out=u)
        u += xj  # (s - t) + xj, taken where |s| >= |xj|
        np.subtract(xj, t, out=v)
        v += s  # (xj - t) + s, taken otherwise
        np.copyto(u, v, where=small)
        c += u
        s, t = t, s
    s += c
    totals = s.reshape(*lead, nb)

    size = 1
    while size < nb:
        size *= 2
    buf = np.zeros((*lead, size), dtype=np.float64)
    buf[..., :nb] = totals
    while buf.shape[-1] > 1:
        buf = buf[..., 0::2] + buf[..., 1::2]
    return buf[..., 0]


def _row_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Canonical sum along the last axis of ``a`` (or of ``a * b``)."""
    cols = _columns(a, b)
    return _reduce(cols, cols.shape[1:])


def ordered_sums(values: np.ndarray) -> np.ndarray:
    """Canonical sum of every row: along the last axis of ``values``."""
    return _row_sums(np.asarray(values, dtype=np.float64))


def ordered_sum(values: np.ndarray) -> float:
    """Sum a float64 vector in the canonical deterministic order."""
    return float(ordered_sums(np.atleast_1d(values)))


def ordered_dot(weights: np.ndarray, values: np.ndarray) -> float:
    """Dot product: elementwise multiply, then the canonical sum."""
    w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    v = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if w.shape != v.shape:
        raise ValueError("weights and values must have the same shape")
    return float(_row_sums(w, v))


def _pompeiu_columns(cols, wr, wi, dead, n):
    """Yield the Pompeiu terms of targets ``(wr, wi)`` one block column at a time.

    ``cols`` are the block columns of the centers and of ``v * wt``.  Each
    yielded array has shape ``(k, 2, nb)``: real and imaginary terms of each
    of the ``k`` targets.  Past-the-end and dead cells hold exactly 0.0.
    """
    ccr, cci, cnr, cni = cols
    k, nb = wr.shape[0], ccr.shape[-1]
    rem = n % BLOCK
    wr = wr[:, None]
    wi = wi[:, None]
    term = np.empty((k, 2, nb))
    re = term[:, 0]
    im = term[:, 1]
    dr, di, den, tmp = (np.empty((k, nb)) for _ in range(4))
    owner = np.repeat(np.arange(k), [d.size for d in dead])
    cells = np.concatenate(dead)
    slot, block = cells % BLOCK, cells // BLOCK
    for j in range(BLOCK):
        with np.errstate(divide="ignore", invalid="ignore"):
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
        if rem and j >= rem:
            term[..., -1] = 0.0
        hit = slot == j
        if hit.any():
            term[owner[hit], :, block[hit]] = 0.0
        yield term


def pompeiu_sum_many(
    cr: np.ndarray,
    ci: np.ndarray,
    wt: np.ndarray,
    vr: np.ndarray,
    vi: np.ndarray,
    wr: np.ndarray,
    wi: np.ndarray,
    dead,
) -> tuple[np.ndarray, np.ndarray]:
    """``pompeiu_sum`` for the targets ``(wr[t], wi[t])``, ``t < T``.

    ``dead[t]`` holds the indices of the cells that contribute exactly 0.0
    for target ``t``.  Returns the real and imaginary sums, each of shape
    ``(T,)``; entry ``t`` has the bits ``pompeiu_sum`` gives for that target.
    The centers and ``v * wt`` are laid out in block columns once; each step
    then computes a few targets' terms one column at a time, so the working
    set stays small and fixed whatever ``T`` is.
    """
    cr, ci, wt, vr, vi = (np.asarray(x, dtype=np.float64) for x in (cr, ci, wt, vr, vi))
    wr = np.atleast_1d(np.asarray(wr, dtype=np.float64))
    wi = np.atleast_1d(np.asarray(wi, dtype=np.float64))
    dead = [np.asarray(d, dtype=np.intp).ravel() for d in dead]
    n = cr.size
    if any(x.shape != (n,) for x in (cr, ci, wt, vr, vi)):
        raise ValueError("all cell arrays must have the same length")
    if wr.ndim != 1 or wi.shape != wr.shape or len(dead) != wr.shape[0]:
        raise ValueError("wr, wi and dead must have one entry per target")
    if any(d.size and (d.min() < 0 or d.max() >= n) for d in dead):
        raise ValueError("dead cell index out of range")
    n_targets = wr.shape[0]
    re = np.zeros(n_targets)
    im = np.zeros(n_targets)
    if n == 0:
        return re, im
    cols = (_columns(cr), _columns(ci), _columns(vr, wt), _columns(vi, wt))
    nb = cols[0].shape[-1]
    for lo in range(0, n_targets, _TARGET_STEP):
        hi = min(lo + _TARGET_STEP, n_targets)
        terms = _pompeiu_columns(cols, wr[lo:hi], wi[lo:hi], dead[lo:hi], n)
        sums = _reduce(terms, (hi - lo, 2, nb))
        re[lo:hi] = sums[:, 0]
        im[lo:hi] = sums[:, 1]
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

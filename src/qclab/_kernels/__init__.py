"""Reduction kernels with two interchangeable lanes.

At import time the compiled Cython core is preferred; if the extension is not
built the pure-numpy fallback takes over.  Both lanes implement the identical
floating-point operation order, so every number the package produces is
independent of the lane (and a test asserts bitwise agreement when both are
importable).  Selection is purely by import availability — no environment
variable changes it.

``ordered_sums`` (the canonical sum of every row) and ``pompeiu_sum_many``
(the area sum at many targets) are the batched kernels.  The fallback
batches the rows and targets; the compiled lane loops its one-row
``ordered_sum`` and its single-target ``pompeiu_sum``.
"""

from __future__ import annotations

import numpy as np

from . import fallback

try:
    from . import _core as _impl
except ImportError:
    _impl = fallback

ordered_sum = _impl.ordered_sum
ordered_dot = _impl.ordered_dot
pompeiu_sum = _impl.pompeiu_sum
BLOCK = _impl.BLOCK


def _compiled_pompeiu_sum_many(cr, ci, wt, vr, vi, wr, wi, dead):
    """``pompeiu_sum_many`` as a loop over the compiled ``pompeiu_sum``."""
    wr = np.atleast_1d(np.asarray(wr, dtype=np.float64))
    wi = np.atleast_1d(np.asarray(wi, dtype=np.float64))
    if wi.shape != wr.shape or len(dead) != wr.shape[0]:
        raise ValueError("wr, wi and dead must have one entry per target")
    cr, ci, wt, vr, vi = (
        np.ascontiguousarray(x, dtype=np.float64) for x in (cr, ci, wt, vr, vi)
    )
    mask = np.zeros(cr.shape[0], dtype=np.uint8)
    re = np.zeros(wr.shape[0])
    im = np.zeros(wr.shape[0])
    for t, cells in enumerate(dead):
        mask[cells] = 1
        re[t], im[t] = _impl.pompeiu_sum(cr, ci, wt, vr, vi, wr[t], wi[t], mask)
        mask[cells] = 0
    return re, im


def _compiled_ordered_sums(values):
    """``ordered_sums`` as a loop over the compiled ``ordered_sum``."""
    x = np.asarray(values, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    return np.array([_impl.ordered_sum(r) for r in rows]).reshape(x.shape[:-1])


if _impl is fallback:
    ordered_sums = fallback.ordered_sums
    pompeiu_sum_many = fallback.pompeiu_sum_many
else:
    ordered_sums = _compiled_ordered_sums
    pompeiu_sum_many = _compiled_pompeiu_sum_many


def backend_name() -> str:
    """Return which lane is active: ``"compiled"`` or ``"fallback"``."""
    return _impl.LANE


__all__ = [
    "BLOCK",
    "backend_name",
    "fallback",
    "ordered_dot",
    "ordered_sum",
    "ordered_sums",
    "pompeiu_sum",
    "pompeiu_sum_many",
]

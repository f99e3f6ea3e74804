"""Reduction kernels: the canonical, deterministic summation order.

Every reduction in the package goes through these numpy kernels, in one
fixed summation order, so a rerun reproduces every bit.  The kernels use
only ``+ - * /``, but the last bits of their inputs (map values,
logarithms, powers) follow numpy's SIMD dispatch on the CPU, and the
ladders' log-log fits go through LAPACK, which follows the BLAS; so two
installs may differ in a result's last bits.

``ordered_sum`` reduces one vector; ``ordered_sums`` (the canonical sum of
every row) and ``ordered_dot`` (the dot product of one weight row with one
or more rows) are the batched kernels, and ``pompeiu_sum`` is the Pompeiu
area sum at one target over the cells it is given, summed as a row of their
own; the area calls it once per target, on the target's near run.  The
Pompeiu area's far rings are summed outside these kernels, by series from
``numpy.fft``, whose bits follow numpy's build.

Each block of ``BLOCK`` values is summed in sequence while the exact error
of every step is accumulated; that error is computed as TwoSum, which
equals Neumaier's correction.  The block totals meet in a fixed pairwise
tree.  Short inputs are scanned along each block in one call, long inputs
across blocks; the crossover is measured, and both scans give the same
bits.  The implementation lives in ``fallback``; this module re-exports it.
"""

from __future__ import annotations

from . import fallback
from .fallback import (
    BLOCK,
    ordered_dot,
    ordered_sum,
    ordered_sums,
    pompeiu_sum,
)


def backend_name() -> str:
    """Return the kernel lane, always ``"fallback"`` (the numpy kernels)."""
    return "fallback"


__all__ = [
    "BLOCK",
    "backend_name",
    "fallback",
    "ordered_dot",
    "ordered_sum",
    "ordered_sums",
    "pompeiu_sum",
]

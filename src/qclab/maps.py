"""Planar map families with analytic Wirtinger derivatives.

A family writes one evaluation, ``_jet(pts) -> (f, f_z, f_zbar)``: its value
and Wirtinger pair in closed form on an array of finite points, after its
own domain check.  It reports the discontinuity sets of its derivatives
(break radii on annuli, break abscissae on rectangles) and, where a
``Composition`` needs it, pulls an image break radius back to the source.
``MapFamily`` serves every caller from ``_jet`` and adds the checks no
family repeats: ``eval_many`` and ``jet_many`` refuse non-finite points, and
``jet_many`` refuses a point on a break, where the derivatives jump.
``eval_many`` does not, since every map is continuous there: it serves the
values off the grid (boundary traces, reconstruction targets), and
``jet_many`` the grid samples of ``qclab.functionals._sampled``.  A
``Composition`` evaluates each of its maps once per call and is checked
against its own break set.
``InverseSpiralStretch`` is the one inverse family: ``Phi`` is built from
it, while the strip map ``Psi`` is never built (see ``qclab.pompeiu``).

Radial families evaluate one power law, ``_radial_jet``:
``h(w) = A * w * |w|**(s-1) * exp(i*c*log|w|)``, whose derivatives are
``h_w = (s+1+ic)/2 * h/w`` and ``h_wbar = (s-1+ic)/2 * h/conj(w)``, so its
distortion is constant.  The two-speed family picks each point's ``A`` and
``s`` from its piece and evaluates the law once.
"""

from __future__ import annotations

import abc
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BreakSetError,
    DomainError,
    InputError,
    UnsupportedVariantError,
    require_real,
)
from .geometry import _break_tol, image_annulus

__all__ = [
    "Composition",
    "ConjugationMap",
    "IdentityMap",
    "InverseSpiralStretch",
    "LinearStretch",
    "MapFamily",
    "PiecewiseLinearStretch",
    "PiecewiseRadialStretch",
    "Rotation",
    "SpiralStretch",
]

_RTOL = 1e-9


def _as_points(z) -> np.ndarray:
    """``z`` as a complex array of at least one dimension; its shape is kept."""
    pts = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if not np.all(np.isfinite(pts.real) & np.isfinite(pts.imag)):
        raise DomainError("evaluation points must be finite")
    return pts


class MapFamily(abc.ABC):
    """Common interface for all map families.

    A family defines ``label`` and ``_jet``; the evaluators here wrap
    ``_jet`` in the finite-point and break checks.
    """

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short human-readable identifier used in reports."""

    @abc.abstractmethod
    def _jet(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(f, f_z, f_zbar)`` at the finite points ``pts``, breaks unchecked.

        Runs the family's own domain check.  Each array has the shape of
        ``pts``, behind a leading rung axis when the family has one.
        """

    def jet_many(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(f, f_z, f_zbar)`` on a vector of points, none of them on a break."""
        pts = _as_points(z)
        jet = self._jet(pts)
        for breaks, coord, noun in (
            (self.break_radii(), np.abs, "circle |w|"),
            (self.break_abscissae(), np.real, "line Re z"),
        ):
            for b in breaks:
                if np.any(np.abs(coord(pts) - b) <= _break_tol(b)):
                    raise BreakSetError(
                        f"derivative of {self.label} requested on its break {noun} = {b!r}"
                    )
        return jet

    def eval_many(self, z) -> np.ndarray:
        """The map's values on a vector of points, its breaks included."""
        return self._jet(_as_points(z))[0]

    def break_radii(self) -> tuple[float, ...]:
        """Radii where the derivatives jump (annulus families)."""
        return ()

    def break_abscissae(self) -> tuple[float, ...]:
        """Horizontal coordinates where the derivatives jump (strip families)."""
        return ()

    @property
    def rotation_equivariant(self) -> bool:
        """True if ``f(exp(i*t) * w) == exp(i*t) * f(w)`` for every real ``t``.

        Then ``|f_z|``, ``|f_zbar|`` and ``|f - g|`` against another such map
        depend only on ``|w|``, so a polar-grid integral of them can be
        evaluated once per ring (see ``qclab.functionals``).
        """
        return False

    def pullback_radius(self, radius: float) -> float:
        """Source radius mapping onto the given image radius."""
        raise UnsupportedVariantError(
            f"{self.label} cannot pull back image radii"
        )


def _check_annulus(pts: np.ndarray, lo: float, hi: float, label: str) -> np.ndarray:
    r = np.abs(pts)
    bad = (r < lo * (1.0 - _RTOL)) | (r > hi * (1.0 + _RTOL))
    if np.any(bad):
        w = complex(pts.flat[np.flatnonzero(bad)[0]])
        raise DomainError(
            f"point {w!r} lies outside the domain annulus [{lo!r}, {hi!r}] of {label}"
        )
    return r


def _check_strip(x: np.ndarray, hi: float, label: str) -> None:
    """Refuse abscissae outside ``[-_RTOL, hi * (1 + _RTOL)]``."""
    bad = (x < -_RTOL) | (x > hi * (1.0 + _RTOL))
    if np.any(bad):
        raise DomainError(
            f"point with Re z = {float(x.flat[np.flatnonzero(bad)[0]])!r} lies "
            f"outside the strip 0 <= Re z <= {hi!r} of {label}"
        )


def _affine_jet(f: np.ndarray, fz: complex, fzb: complex):
    """The jet of an affine map with values ``f``: ``(fz, fzb)`` at every point."""
    return (f, *(np.full(f.shape, v, dtype=np.complex128) for v in (fz, fzb)))


def _check_two_speed(k: float, eps: float) -> None:
    """Parameter contract of the two-speed families: ``k > 1``, ``0 < eps < (k-1)^2``."""
    require_real(k, "k must be > 1", lambda v: v > 1.0)
    require_real(eps, "eps must be > 0", lambda v: v > 0.0)
    # from k - 1 = 2**512 on, (k-1)^2 overflows and exceeds every float eps
    if not (k - 1.0 >= 2.0**512 or eps < (k - 1.0) ** 2):
        raise InputError("eps must be < (k-1)^2")


def _per_rung(fn, value):
    """``fn(value)``, or ``fn`` of each rung when ``value`` is a tuple of rungs."""
    if isinstance(value, tuple):
        return tuple(fn(v) for v in value)
    return fn(value)


def _radial_jet(w: np.ndarray, r: np.ndarray, amp, s, c: float):
    """``(h, h_w, h_wbar)`` of ``h(w) = amp * w * |w|**(s-1) * exp(i*c*log|w|)``.

    ``r`` is ``|w|``.  ``amp`` and ``s`` are scalars, or arrays that
    broadcast against ``w``: one constant per point, or per rung and point.
    """
    logr = np.log(r)
    h = amp * w * np.exp((s - 1.0) * logr + 1j * c * logr)
    return h, 0.5 * (s + 1.0 + 1j * c) * h / w, 0.5 * (s - 1.0 + 1j * c) * h / np.conj(w)


def _radial_distortion(s: float, c: float) -> float:
    """The constant distortion of the radial power law with exponent ``s`` and twist ``c``."""
    beta = abs(0.5 * (s + 1.0 + 1j * c))
    gamma = abs(0.5 * (s - 1.0 + 1j * c))
    return (beta + gamma) / (beta - gamma)


@dataclass(frozen=True)
class SpiralStretch(MapFamily):
    """Spiral stretch of the annulus ``[q, 1]`` onto ``[q**k, 1]``.

    ``h(w) = w * |w|**(k-1) * exp(i*c*log|w|)`` with
    ``c = (theta + 2*pi*winding) / log(q)``.  It fixes the unit circle and
    rotates the inner boundary by ``theta`` (plus ``winding`` full turns).
    Constant distortion.
    """

    q: float
    k: float
    theta: float = 0.0
    winding: int = 0

    def __post_init__(self) -> None:
        require_real(self.q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        require_real(self.k, "k must be >= 1", lambda v: v >= 1.0)
        require_real(self.theta, "theta must be a finite real number")
        require_real(
            self.winding,
            "winding must be a non-negative integer",
            lambda v: v >= 0,
            integer=True,
        )

    @property
    def c(self) -> float:
        return (self.theta + 2.0 * math.pi * self.winding) / math.log(self.q)

    @property
    def label(self) -> str:
        if self.theta == 0.0 and self.winding == 0:
            return "gstar"
        if self.theta == 0.0:
            return f"g{self.winding}"
        return f"spiral(theta={self.theta:g},winding={self.winding})"

    @property
    def rotation_equivariant(self) -> bool:
        return True

    @property
    def distortion(self) -> float:
        return _radial_distortion(float(self.k), self.c)

    def _jet(self, pts: np.ndarray):
        r = _check_annulus(pts, self.q, 1.0, self.label)
        return _radial_jet(pts, r, 1.0 + 0.0j, float(self.k), self.c)


@dataclass(frozen=True)
class InverseSpiralStretch(MapFamily):
    """Analytic inverse of ``SpiralStretch(q, k, theta, winding=0)``.

    Maps the annulus ``[q**k, 1]`` back onto ``[q, 1]``:
    ``h(w) = w * |w|**(1/k - 1) * exp(i*c*log|w|)`` with
    ``c = -theta / (k*log(q))``.  Its domain comes from
    ``qclab.geometry.image_annulus``, which refuses a ``q**k`` that underflows.
    """

    q: float
    k: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        image_annulus(self.q, self.k)
        require_real(self.theta, "theta must be a finite real number")

    @property
    def c(self) -> float:
        return -self.theta / (self.k * math.log(self.q))

    @property
    def distortion(self) -> float:
        return _radial_distortion(1.0 / self.k, self.c)

    @property
    def label(self) -> str:
        return "gstar-inverse"

    @property
    def rotation_equivariant(self) -> bool:
        return True

    @property
    def inner_radius(self) -> float:
        return self.q**self.k

    def _jet(self, pts: np.ndarray):
        r = _check_annulus(pts, self.inner_radius, 1.0, self.label)
        return _radial_jet(pts, r, 1.0 + 0.0j, 1.0 / self.k, self.c)

    def pullback_radius(self, radius: float) -> float:
        """``radius**k``, for an image radius strictly inside ``(q, 1)``."""
        if not (self.q < radius < 1.0):
            raise InputError(
                f"image radius {radius!r} is not strictly inside [{self.q!r}, 1]"
            )
        return radius**self.k


@dataclass(frozen=True)
class PiecewiseRadialStretch(MapFamily):
    """Two-speed radial stretch of ``[q, 1]`` onto ``[q**k, 1]``.

    Below the break circle ``|w| = sqrt(q)`` the radial exponent is
    ``k - sqrt(eps)`` (with amplitude ``q**sqrt(eps)`` to keep the image
    anchored at ``q**k``); above it the exponent is ``k + sqrt(eps)``.  The
    two pieces agree on the break circle, and the distortion is the constant
    ``k -/+ sqrt(eps)`` on the inner/outer piece.  Each point takes its
    piece's amplitude and exponent, and the power law is evaluated once.

    ``eps`` may also be a tuple of rungs, as the epsilon ladder uses it: then
    every value gains a leading rung axis, ``(R, *z.shape)``, and row ``i``
    has the bits of ``PiecewiseRadialStretch(q, k, eps[i])``.  A rung's
    constants are a column that broadcasts against the points, and the break
    circle does not depend on ``eps``, so the rungs share their checks.
    """

    q: float
    k: float
    eps: float | tuple[float, ...]

    def __post_init__(self) -> None:
        require_real(self.q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        if isinstance(self.eps, tuple) and not self.eps:
            raise InputError("eps must hold at least one rung")
        _per_rung(lambda eps: _check_two_speed(self.k, eps), self.eps)

    @property
    def label(self) -> str:
        return "geps"

    @property
    def rotation_equivariant(self) -> bool:
        return True

    @property
    def root_eps(self) -> float | tuple[float, ...]:
        return _per_rung(math.sqrt, self.eps)

    @property
    def break_radius(self) -> float:
        return math.sqrt(self.q)

    def break_radii(self) -> tuple[float, ...]:
        return (self.break_radius,)

    def _jet(self, pts: np.ndarray):
        r = _check_annulus(pts, self.q, 1.0, self.label)
        # a rung's constants form a column of shape (R, 1, ..., 1)
        column = np.shape(self.eps) + (1,) * pts.ndim
        root = np.reshape(self.root_eps, column)
        inner_amp = np.reshape(_per_rung(lambda v: complex(self.q**v), self.root_eps), column)
        outer = r >= self.break_radius
        amp = np.where(outer, 1.0 + 0.0j, inner_amp)
        return _radial_jet(pts, r, amp, np.where(outer, self.k + root, self.k - root), 0.0)


@dataclass(frozen=True)
class LinearStretch(MapFamily):
    """Affine shear-stretch ``x + iy -> k*x + i*(n*x + y)``.

    Constant Wirtinger pair ``((k+1+in)/2, (k-1+in)/2)``, so the Jacobian
    ``|f_z|^2 - |f_zbar|^2`` is ``k``.
    """

    k: float
    n: float = 0.0

    def __post_init__(self) -> None:
        require_real(self.k, "k must be >= 1", lambda v: v >= 1.0)
        require_real(self.n, "n must be a finite real number")

    @property
    def label(self) -> str:
        return "fstar"

    @property
    def fz(self) -> complex:
        return complex(self.k + 1.0, self.n) / 2.0

    @property
    def fzb(self) -> complex:
        return complex(self.k - 1.0, self.n) / 2.0

    @property
    def mu(self) -> complex:
        return self.fzb / self.fz

    def _jet(self, pts: np.ndarray):
        x = pts.real
        return _affine_jet(self.k * x + 1j * (self.n * x + pts.imag), self.fz, self.fzb)


@dataclass(frozen=True)
class PiecewiseLinearStretch(MapFamily):
    """Two-speed horizontal stretch of the unit square.

    ``x + iy -> g(x) + iy`` with ``g(x) = (k + sqrt(eps))*x`` on ``[0, 1/2]``
    and ``g(x) = (k - sqrt(eps))*x + sqrt(eps)`` on ``[1/2, 1]``, so the image
    is ``[0, k] x [0, 1]`` and the distortion is ``k + sqrt(eps)`` left of the
    break line and ``k - sqrt(eps)`` right of it.
    """

    k: float
    eps: float

    def __post_init__(self) -> None:
        _check_two_speed(self.k, self.eps)

    @property
    def label(self) -> str:
        return "feps"

    @property
    def root_eps(self) -> float:
        return math.sqrt(self.eps)

    def break_abscissae(self) -> tuple[float, ...]:
        return (0.5,)

    def _jet(self, pts: np.ndarray):
        x = pts.real
        _check_strip(x, 1.0, self.label)
        left = x < 0.5
        slope = np.where(left, self.k + self.root_eps, self.k - self.root_eps)
        sx = slope * x
        g = np.where(left, sx, sx + self.root_eps)
        return g + 1j * pts.imag, (slope + 1.0) / 2.0 + 0.0j, (slope - 1.0) / 2.0 + 0.0j


@dataclass(frozen=True)
class Rotation(MapFamily):
    """Rigid rotation ``z -> exp(i*beta) * z``."""

    beta: float

    def __post_init__(self) -> None:
        require_real(self.beta, "beta must be a finite real number")

    @property
    def label(self) -> str:
        return f"rotation({self.beta:g})"

    @property
    def rotation_equivariant(self) -> bool:
        return True

    @property
    def factor(self) -> complex:
        return cmath.exp(1j * self.beta)

    def _jet(self, pts: np.ndarray):
        return _affine_jet(self.factor * pts, self.factor, 0.0)

    def pullback_radius(self, radius: float) -> float:
        return radius


@dataclass(frozen=True)
class IdentityMap(MapFamily):
    """The identity ``z -> z``."""

    @property
    def label(self) -> str:
        return "identity"

    @property
    def rotation_equivariant(self) -> bool:
        return True

    def _jet(self, pts: np.ndarray):
        return _affine_jet(pts.copy(), 1.0, 0.0)


@dataclass(frozen=True)
class ConjugationMap(MapFamily):
    """Complex conjugation ``z -> conj(z)`` (orientation reversing)."""

    @property
    def label(self) -> str:
        return "conjugation"

    def _jet(self, pts: np.ndarray):
        return _affine_jet(np.conj(pts), 0.0, 1.0)


@dataclass(frozen=True)
class Composition(MapFamily):
    """Composite map ``outer after inner`` with chain-rule derivatives.

    Break circles of the outer map are pulled back through the inner map's
    radial profile; if the inner map cannot pull them back, the composition
    is refused rather than silently mislocating the discontinuity set.  Break
    lines (abscissae) are kept only from the inner map: an outer map with
    break lines is refused, since no family pulls abscissae back.  A point
    is checked against this pulled-back break set, and each map is evaluated
    once per call.
    """

    outer: MapFamily
    inner: MapFamily
    _break_radii: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.outer.break_abscissae():
            raise UnsupportedVariantError(
                f"{self.inner.label} cannot pull back the break lines of "
                f"{self.outer.label}"
            )
        radii = list(self.inner.break_radii())
        for b in self.outer.break_radii():
            radii.append(self.inner.pullback_radius(b))
        object.__setattr__(self, "_break_radii", tuple(sorted(set(radii))))

    @property
    def label(self) -> str:
        return f"{self.outer.label} o {self.inner.label}"

    def break_radii(self) -> tuple[float, ...]:
        return self._break_radii

    def break_abscissae(self) -> tuple[float, ...]:
        return self.inner.break_abscissae()

    @property
    def rotation_equivariant(self) -> bool:
        return self.outer.rotation_equivariant and self.inner.rotation_equivariant

    def _jet(self, pts: np.ndarray):
        w, hz, hzb = self.inner._jet(pts)
        # the inner map's values are the outer map's points: checked as finite
        f, gw, gwb = self.outer._jet(_as_points(w))
        # np.multiply, not ``*``: on operands of 256 KiB or more numpy would
        # multiply into the ``np.conj`` temporary in place, with a complex
        # loop whose last bits differ, so a value would depend on how many
        # points share the call.
        fz = np.multiply(gw, hz) + np.multiply(gwb, np.conj(hzb))
        fzb = np.multiply(gw, hzb) + np.multiply(gwb, np.conj(hz))
        return f, fz, fzb

"""Planar map families with analytic Wirtinger derivatives.

Every family can evaluate itself and its Wirtinger pair ``(f_z, f_zbar)`` in
closed form on arrays of points, report the discontinuity sets of its
derivatives (break radii on annuli, break abscissae on rectangles), and —
where a ``Composition`` needs it — pull an image break radius back to the
source.  ``InverseSpiralStretch`` is the one inverse family: ``Phi`` is built
from it, while the strip map ``Psi`` is never built (see ``qclab.pompeiu``).

Radial families share one core: ``h(w) = A * w * |w|**(s-1) * exp(i*c*log|w|)``
whose derivatives are ``h_w = (s+1+ic)/2 * h/w`` and
``h_wbar = (s-1+ic)/2 * h/conj(w)``, so their distortion is constant.
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
_BREAK_ATOL = 1e-12
_ZERO_BITS = bytes(16)


def _as_points(z) -> np.ndarray:
    pts = np.asarray(z, dtype=np.complex128)
    if pts.ndim != 1:
        pts = np.atleast_1d(pts).ravel()
    if not np.all(np.isfinite(pts.real) & np.isfinite(pts.imag)):
        raise DomainError("evaluation points must be finite")
    return pts


class MapFamily(abc.ABC):
    """Common interface for all map families."""

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short human-readable identifier used in reports."""

    @abc.abstractmethod
    def eval_many(self, z: np.ndarray) -> np.ndarray:
        """Evaluate the map on a vector of points."""

    @abc.abstractmethod
    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(f_z, f_zbar)`` arrays on a vector of points."""

    def eval(self, z: complex) -> complex:
        return complex(self.eval_many(_as_points(z))[0])

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
        w = complex(pts[np.flatnonzero(bad)[0]])
        raise DomainError(
            f"point {w!r} lies outside the domain annulus [{lo!r}, {hi!r}] of {label}"
        )
    return r


def _check_strip(x: np.ndarray, hi: float, label: str) -> None:
    """Refuse abscissae outside ``[-_RTOL, hi * (1 + _RTOL)]``."""
    bad = (x < -_RTOL) | (x > hi * (1.0 + _RTOL))
    if np.any(bad):
        raise DomainError(
            f"point with Re z = {float(x[np.flatnonzero(bad)[0]])!r} lies "
            f"outside the strip 0 <= Re z <= {hi!r} of {label}"
        )


_CIRCLE = "circle |w|"
_LINE = "line Re z"


def _check_breaks(
    coord: np.ndarray, breaks: tuple[float, ...], noun: str, label: str
) -> None:
    """Refuse points whose ``coord`` (radius or abscissa) lies on a break."""
    for b in breaks:
        if np.any(np.abs(coord - b) <= _BREAK_ATOL):
            raise BreakSetError(
                f"derivative of {label} requested on its break {noun} = {b!r}"
            )


def _constant_pair(pts: np.ndarray, fz: complex, fzb: complex):
    """The Wirtinger pair of an affine map: ``(fz, fzb)`` at every point.

    A ``+0`` constant (all bits clear) comes from ``np.zeros``, whose
    untouched pages read faster than written ones.
    """
    return tuple(
        np.zeros(pts.shape, dtype=np.complex128)
        if np.complex128(v).tobytes() == _ZERO_BITS
        else np.full(pts.shape, v, dtype=np.complex128)
        for v in (fz, fzb)
    )


def _check_two_speed(k: float, eps: float) -> None:
    """Parameter contract of the two-speed families: ``k > 1``, ``0 < eps < (k-1)^2``."""
    require_real(k, "k must be > 1", lambda v: v > 1.0)
    require_real(eps, "eps must be > 0", lambda v: v > 0.0)
    if not eps < (k - 1.0) ** 2:
        raise InputError("eps must be < (k-1)^2")


@dataclass(frozen=True)
class _PowerPiece:
    """One smooth radial piece ``h(w) = amp * w * |w|**(s-1) * exp(i*c*log|w|)``."""

    amp: complex
    s: float
    c: float

    def eval(self, w: np.ndarray, r: np.ndarray) -> np.ndarray:
        logr = np.log(r)
        return self.amp * w * np.exp((self.s - 1.0) * logr + 1j * self.c * logr)

    def wirtinger(
        self, w: np.ndarray, r: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        h = self.eval(w, r)
        beta = 0.5 * (self.s + 1.0 + 1j * self.c)
        gamma = 0.5 * (self.s - 1.0 + 1j * self.c)
        return beta * h / w, gamma * h / np.conj(w)

    @property
    def distortion(self) -> float:
        beta = abs(0.5 * (self.s + 1.0 + 1j * self.c))
        gamma = abs(0.5 * (self.s - 1.0 + 1j * self.c))
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
    def _piece(self) -> _PowerPiece:
        return _PowerPiece(amp=1.0 + 0.0j, s=float(self.k), c=self.c)

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
        return self._piece.distortion

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        r = _check_annulus(pts, self.q, 1.0, self.label)
        return self._piece.eval(pts, r)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        r = _check_annulus(pts, self.q, 1.0, self.label)
        return self._piece.wirtinger(pts, r)


@dataclass(frozen=True)
class InverseSpiralStretch(MapFamily):
    """Analytic inverse of ``SpiralStretch(q, k, theta, winding=0)``.

    Maps the annulus ``[q**k, 1]`` back onto ``[q, 1]``:
    ``h(w) = w * |w|**(1/k - 1) * exp(i*c*log|w|)`` with
    ``c = -theta / (k*log(q))``.
    """

    q: float
    k: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        require_real(self.q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        require_real(self.k, "k must be >= 1", lambda v: v >= 1.0)
        require_real(self.theta, "theta must be a finite real number")

    @property
    def c(self) -> float:
        return -self.theta / (self.k * math.log(self.q))

    @property
    def _piece(self) -> _PowerPiece:
        return _PowerPiece(amp=1.0 + 0.0j, s=1.0 / self.k, c=self.c)

    @property
    def distortion(self) -> float:
        return self._piece.distortion

    @property
    def label(self) -> str:
        return "gstar-inverse"

    @property
    def rotation_equivariant(self) -> bool:
        return True

    @property
    def inner_radius(self) -> float:
        return self.q**self.k

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        r = _check_annulus(pts, self.inner_radius, 1.0, self.label)
        return self._piece.eval(pts, r)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        r = _check_annulus(pts, self.inner_radius, 1.0, self.label)
        return self._piece.wirtinger(pts, r)

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
    ``k -/+ sqrt(eps)`` on the inner/outer piece.
    """

    q: float
    k: float
    eps: float

    def __post_init__(self) -> None:
        require_real(self.q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        _check_two_speed(self.k, self.eps)

    @property
    def label(self) -> str:
        return "geps"

    @property
    def rotation_equivariant(self) -> bool:
        return True

    @property
    def root_eps(self) -> float:
        return math.sqrt(self.eps)

    @property
    def break_radius(self) -> float:
        return math.sqrt(self.q)

    @property
    def _inner(self) -> _PowerPiece:
        return _PowerPiece(
            amp=complex(self.q**self.root_eps), s=self.k - self.root_eps, c=0.0
        )

    @property
    def _outer(self) -> _PowerPiece:
        return _PowerPiece(amp=1.0 + 0.0j, s=self.k + self.root_eps, c=0.0)

    def break_radii(self) -> tuple[float, ...]:
        return (self.break_radius,)

    def _pieces(self, r: np.ndarray) -> np.ndarray:
        return r >= self.break_radius

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        r = _check_annulus(pts, self.q, 1.0, self.label)
        outer = self._pieces(r)
        out = np.empty_like(pts)
        if np.any(outer):
            out[outer] = self._outer.eval(pts[outer], r[outer])
        if not np.all(outer):
            inner = ~outer
            out[inner] = self._inner.eval(pts[inner], r[inner])
        return out

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        r = _check_annulus(pts, self.q, 1.0, self.label)
        _check_breaks(r, self.break_radii(), _CIRCLE, self.label)
        outer = self._pieces(r)
        fz = np.empty_like(pts)
        fzb = np.empty_like(pts)
        if np.any(outer):
            fz[outer], fzb[outer] = self._outer.wirtinger(pts[outer], r[outer])
        if not np.all(outer):
            inner = ~outer
            fz[inner], fzb[inner] = self._inner.wirtinger(pts[inner], r[inner])
        return fz, fzb


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

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        x, y = pts.real, pts.imag
        return self.k * x + 1j * (self.n * x + y)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _constant_pair(_as_points(z), self.fz, self.fzb)


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

    def _slopes(self, x: np.ndarray) -> np.ndarray:
        return np.where(x < 0.5, self.k + self.root_eps, self.k - self.root_eps)

    def _g(self, x: np.ndarray) -> np.ndarray:
        return np.where(
            x < 0.5,
            (self.k + self.root_eps) * x,
            (self.k - self.root_eps) * x + self.root_eps,
        )

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        x = pts.real
        _check_strip(x, 1.0, self.label)
        return self._g(x) + 1j * pts.imag

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        x = pts.real
        _check_strip(x, 1.0, self.label)
        _check_breaks(x, self.break_abscissae(), _LINE, self.label)
        slope = self._slopes(x)
        fz = (slope + 1.0) / 2.0 + 0.0j
        fzb = (slope - 1.0) / 2.0 + 0.0j
        return fz.astype(np.complex128), fzb.astype(np.complex128)


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

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return self.factor * _as_points(z)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _constant_pair(_as_points(z), self.factor, 0.0)

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

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return _as_points(z).copy()

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _constant_pair(_as_points(z), 1.0, 0.0)


@dataclass(frozen=True)
class ConjugationMap(MapFamily):
    """Complex conjugation ``z -> conj(z)`` (orientation reversing)."""

    @property
    def label(self) -> str:
        return "conjugation"

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return np.conj(_as_points(z))

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _constant_pair(_as_points(z), 0.0, 1.0)


@dataclass(frozen=True)
class Composition(MapFamily):
    """Composite map ``outer after inner`` with chain-rule derivatives.

    Break circles of the outer map are pulled back through the inner map's
    radial profile; if the inner map cannot pull them back, the composition
    is refused rather than silently mislocating the discontinuity set.  Break
    lines (abscissae) are kept only from the inner map: an outer map with
    break lines is refused, since no family pulls abscissae back.
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

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return self.outer.eval_many(self.inner.eval_many(z))

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        hz, hzb = self.inner.wirtinger_many(pts)
        w = self.inner.eval_many(pts)
        gw, gwb = self.outer.wirtinger_many(w)
        fz = gw * hz + gwb * np.conj(hzb)
        fzb = gw * hzb + gwb * np.conj(hz)
        return fz, fzb

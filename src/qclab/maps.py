"""Planar map families with analytic Wirtinger derivatives.

Every family can evaluate itself and its Wirtinger pair ``(f_z, f_zbar)`` in
closed form on arrays of points, report the discontinuity sets of its
derivatives (break radii on annuli, break abscissae on rectangles, a possible
branch cut on the positive real axis), and — where meaningful — invert itself
and pull image-side breaks back to the source.  A generic finite-difference
probe ``wirtinger_fd`` cross-checks the closed forms; it refuses stencils that
straddle a break or cut.

Radial families share one core: ``h(w) = A * w * |w|**(s-1) * exp(i*c*log|w|)``
whose derivatives are ``h_w = (s+1+ic)/2 * h/w`` and
``h_wbar = (s-1+ic)/2 * h/conj(w)``, so their distortion is constant.
"""

from __future__ import annotations

import abc
import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "ExpCoordinates",
    "ExpCoordinatesF",
    "IdentityMap",
    "InverseLinearStretch",
    "InverseSpiralStretch",
    "LinearStretch",
    "LogCoordinatesG",
    "MapFamily",
    "PiecewiseLinearStretch",
    "PiecewiseRadialStretch",
    "Rotation",
    "SpiralStretch",
    "WirtingerPair",
    "wirtinger_fd",
]

_RTOL = 1e-9
_BREAK_ATOL = 1e-12


class WirtingerPair(NamedTuple):
    """The pair ``(f_z, f_zbar)`` at one point."""

    fz: complex
    fzb: complex


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

    def wirtinger(self, z: complex) -> WirtingerPair:
        fz, fzb = self.wirtinger_many(_as_points(z))
        return WirtingerPair(complex(fz[0]), complex(fzb[0]))

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        raise UnsupportedVariantError(f"{self.label} does not provide an inverse")

    def invert(self, w: complex) -> complex:
        return complex(self.invert_many(_as_points(w))[0])

    def break_radii(self) -> tuple[float, ...]:
        """Radii where the derivatives jump (annulus families)."""
        return ()

    def break_abscissae(self) -> tuple[float, ...]:
        """Horizontal coordinates where the derivatives jump (strip families)."""
        return ()

    @property
    def has_positive_real_cut(self) -> bool:
        """True if the map has a branch cut on the positive real axis."""
        return False

    def pullback_radius(self, radius: float) -> float:
        """Source radius mapping onto the given image radius."""
        raise UnsupportedVariantError(
            f"{self.label} cannot pull back image radii"
        )

    def pullback_abscissa(self, abscissa: float) -> float:
        """Source abscissa mapping onto the given image abscissa."""
        raise UnsupportedVariantError(
            f"{self.label} cannot pull back image abscissae"
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


def _check_breaks_radial(r: np.ndarray, breaks: tuple[float, ...], label: str) -> None:
    for b in breaks:
        if np.any(np.abs(r - b) <= _BREAK_ATOL):
            raise BreakSetError(
                f"derivative of {label} requested on its break circle |w| = {b!r}"
            )


def _check_breaks_abscissa(
    x: np.ndarray, breaks: tuple[float, ...], label: str
) -> None:
    for a in breaks:
        if np.any(np.abs(x - a) <= _BREAK_ATOL):
            raise BreakSetError(
                f"derivative of {label} requested on its break line Re z = {a!r}"
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
    def image_inner_radius(self) -> float:
        return self.q**self.k

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

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        if self.winding != 0:
            raise UnsupportedVariantError(
                "invert is only provided for the winding = 0 member"
            )
        pts = _as_points(w)
        r_img = _check_annulus(pts, self.image_inner_radius, 1.0, self.label)
        r = r_img ** (1.0 / self.k)
        logr = np.log(r)
        return pts * np.exp((1.0 - self.k) * logr - 1j * self.c * logr)

    def pullback_radius(self, radius: float) -> float:
        if not (self.image_inner_radius < radius < 1.0):
            raise InputError(
                f"image radius {radius!r} is not strictly inside "
                f"[{self.image_inner_radius!r}, 1]"
            )
        return radius ** (1.0 / self.k)


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

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        return SpiralStretch(self.q, self.k, self.theta, 0).eval_many(w)

    def pullback_radius(self, radius: float) -> float:
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
    def root_eps(self) -> float:
        return math.sqrt(self.eps)

    @property
    def break_radius(self) -> float:
        return math.sqrt(self.q)

    @property
    def image_break_radius(self) -> float:
        return self.q ** (0.5 * (self.k + self.root_eps))

    @property
    def image_inner_radius(self) -> float:
        return self.q**self.k

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
        _check_breaks_radial(r, self.break_radii(), self.label)
        outer = self._pieces(r)
        fz = np.empty_like(pts)
        fzb = np.empty_like(pts)
        if np.any(outer):
            fz[outer], fzb[outer] = self._outer.wirtinger(pts[outer], r[outer])
        if not np.all(outer):
            inner = ~outer
            fz[inner], fzb[inner] = self._inner.wirtinger(pts[inner], r[inner])
        return fz, fzb

    def pullback_radius(self, radius: float) -> float:
        if not (self.image_inner_radius < radius < 1.0):
            raise InputError(
                f"image radius {radius!r} is not strictly inside "
                f"[{self.image_inner_radius!r}, 1]"
            )
        if radius >= self.image_break_radius:
            return radius ** (1.0 / (self.k + self.root_eps))
        return (radius / self.q**self.root_eps) ** (1.0 / (self.k - self.root_eps))

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        pts = _as_points(w)
        r_img = _check_annulus(pts, self.image_inner_radius, 1.0, self.label)
        se = self.root_eps
        r = np.where(
            r_img >= self.image_break_radius,
            r_img ** (1.0 / (self.k + se)),
            (r_img / self.q**se) ** (1.0 / (self.k - se)),
        )
        return pts / r_img * r


@dataclass(frozen=True)
class LinearStretch(MapFamily):
    """Affine shear-stretch ``x + iy -> k*x + i*(n*x + y)``.

    Constant Wirtinger pair ``((k+1+in)/2, (k-1+in)/2)`` and Jacobian ``k``.
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

    @property
    def jacobian(self) -> float:
        return float(self.k)

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        x, y = pts.real, pts.imag
        return self.k * x + 1j * (self.n * x + y)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        return (
            np.full(pts.shape, self.fz, dtype=np.complex128),
            np.full(pts.shape, self.fzb, dtype=np.complex128),
        )

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        pts = _as_points(w)
        x = pts.real / self.k
        return x + 1j * (pts.imag - self.n * x)

    def pullback_abscissa(self, abscissa: float) -> float:
        return abscissa / self.k


@dataclass(frozen=True)
class InverseLinearStretch(MapFamily):
    """Analytic inverse of ``LinearStretch(k, n)``.

    Constant Wirtinger pair ``((k+1-in)/(2k), -(k-1+in)/(2k))``.
    """

    k: float
    n: float = 0.0

    def __post_init__(self) -> None:
        require_real(self.k, "k must be >= 1", lambda v: v >= 1.0)
        require_real(self.n, "n must be a finite real number")

    @property
    def label(self) -> str:
        return "fstar-inverse"

    @property
    def fz(self) -> complex:
        return complex(self.k + 1.0, -self.n) / (2.0 * self.k)

    @property
    def fzb(self) -> complex:
        return -complex(self.k - 1.0, self.n) / (2.0 * self.k)

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        x = pts.real / self.k
        return x + 1j * (pts.imag - self.n * x)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        return (
            np.full(pts.shape, self.fz, dtype=np.complex128),
            np.full(pts.shape, self.fzb, dtype=np.complex128),
        )

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        return LinearStretch(self.k, self.n).eval_many(w)

    def pullback_abscissa(self, abscissa: float) -> float:
        return abscissa * self.k


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

    def _check_strip(self, x: np.ndarray) -> None:
        bad = (x < -_RTOL) | (x > 1.0 + _RTOL)
        if np.any(bad):
            raise DomainError(
                f"point with Re z = {float(x[np.flatnonzero(bad)[0]])!r} lies "
                f"outside the strip 0 <= Re z <= 1 of {self.label}"
            )

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        x = pts.real
        self._check_strip(x)
        return self._g(x) + 1j * pts.imag

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        x = pts.real
        self._check_strip(x)
        _check_breaks_abscissa(x, self.break_abscissae(), self.label)
        slope = self._slopes(x)
        fz = (slope + 1.0) / 2.0 + 0.0j
        fzb = (slope - 1.0) / 2.0 + 0.0j
        return fz.astype(np.complex128), fzb.astype(np.complex128)

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        pts = _as_points(w)
        u = pts.real
        mid = 0.5 * (self.k + self.root_eps)
        x = np.where(
            u < mid, u / (self.k + self.root_eps),
            (u - self.root_eps) / (self.k - self.root_eps),
        )
        return x + 1j * pts.imag


@dataclass(frozen=True)
class ExpCoordinates(MapFamily):
    """Conformal chart ``z -> q * exp(2*pi*z)`` from a rectangle to an annulus.

    The rectangle ``[0, ell] x [0, 1]`` with ``ell = log(1/q)/(2*pi)`` covers
    the annulus ``[q, 1]`` once; the inverse uses the argument branch
    ``[0, 2*pi)``.
    """

    q: float

    def __post_init__(self) -> None:
        require_real(self.q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)

    @property
    def label(self) -> str:
        return "exp-chart"

    @property
    def ell(self) -> float:
        return math.log(1.0 / self.q) / (2.0 * math.pi)

    def _check_strip(self, x: np.ndarray) -> None:
        bad = (x < -_RTOL) | (x > self.ell * (1.0 + _RTOL) + _RTOL)
        if np.any(bad):
            raise DomainError(
                f"point with Re z = {float(x[np.flatnonzero(bad)[0]])!r} lies "
                f"outside the strip 0 <= Re z <= {self.ell!r} of {self.label}"
            )

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        self._check_strip(pts.real)
        return self.q * np.exp(2.0 * math.pi * pts)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        self._check_strip(pts.real)
        h = self.q * np.exp(2.0 * math.pi * pts)
        return 2.0 * math.pi * h, np.zeros_like(h)

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        pts = _as_points(w)
        r = _check_annulus(pts, self.q, 1.0, self.label)
        theta = np.mod(np.angle(pts), 2.0 * math.pi)
        return (np.log(r / self.q) + 1j * theta) / (2.0 * math.pi)


@dataclass(frozen=True)
class LogCoordinatesG(MapFamily):
    """Branch of ``(1/(2*pi)) * log(w) + k*ell + i*n*ell`` on an annulus.

    Defined on ``[q**k, 1]`` with the argument branch ``[0, 2*pi)`` (so
    ``log 1 = 0``) and the cut on the positive real axis, where the map is
    continuous from above but not differentiable.  The image is the rectangle
    ``[0, k*ell] x [n*ell, n*ell + 1)``; the inverse chart is
    ``zeta -> q**k * exp(2*pi*zeta)``, and the round trip
    ``eval(invert(zeta)) == zeta`` holds exactly on that image whenever
    ``n*ell`` is an integer.
    """

    q: float
    k: float
    n: float = 0.0
    ell: float | None = None

    def __post_init__(self) -> None:
        require_real(self.q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        require_real(self.k, "k must be >= 1", lambda v: v >= 1.0)
        require_real(self.n, "n must be a finite real number")
        derived = math.log(1.0 / self.q) / (2.0 * math.pi)
        if self.ell is None:
            object.__setattr__(self, "ell", derived)
        elif not math.isclose(self.ell, derived, rel_tol=1e-12):
            raise InputError(
                f"ell {self.ell!r} is inconsistent with q (expected {derived!r})"
            )

    @property
    def label(self) -> str:
        return "log-chart"

    @property
    def inner_radius(self) -> float:
        return self.q**self.k

    @property
    def offset(self) -> complex:
        return complex(self.k * self.ell, self.n * self.ell)

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        r = _check_annulus(pts, self.inner_radius, 1.0, self.label)
        theta = np.mod(np.angle(pts), 2.0 * math.pi)
        return (np.log(r) + 1j * theta) / (2.0 * math.pi) + self.offset

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        _check_annulus(pts, self.inner_radius, 1.0, self.label)
        on_cut = (np.abs(pts.imag) <= _BREAK_ATOL) & (pts.real > 0.0)
        if np.any(on_cut):
            raise BreakSetError(
                f"derivative of {self.label} requested on its branch cut "
                "(positive real axis)"
            )
        return 1.0 / (2.0 * math.pi * pts), np.zeros_like(pts)

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        pts = _as_points(w)
        return self.inner_radius * np.exp(2.0 * math.pi * pts)

    @property
    def has_positive_real_cut(self) -> bool:
        return True


@dataclass(frozen=True)
class ExpCoordinatesF(MapFamily):
    """Conformal chart ``zeta -> q**k * exp(2*pi*zeta)`` onto ``[q**k, 1]``.

    Restricted to the strip ``0 <= Re zeta <= k*ell``; the vertical coordinate
    is 1-periodic on the image.
    """

    q: float
    k: float

    def __post_init__(self) -> None:
        require_real(self.q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        require_real(self.k, "k must be >= 1", lambda v: v >= 1.0)

    @property
    def label(self) -> str:
        return "exp-chart-image"

    @property
    def ell(self) -> float:
        return math.log(1.0 / self.q) / (2.0 * math.pi)

    @property
    def inner_radius(self) -> float:
        return self.q**self.k

    def _check_strip(self, x: np.ndarray) -> None:
        hi = self.k * self.ell
        bad = (x < -_RTOL) | (x > hi * (1.0 + _RTOL) + _RTOL)
        if np.any(bad):
            raise DomainError(
                f"point with Re z = {float(x[np.flatnonzero(bad)[0]])!r} lies "
                f"outside the strip 0 <= Re z <= {hi!r} of {self.label}"
            )

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        pts = _as_points(z)
        self._check_strip(pts.real)
        return self.inner_radius * np.exp(2.0 * math.pi * pts)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        self._check_strip(pts.real)
        h = self.inner_radius * np.exp(2.0 * math.pi * pts)
        return 2.0 * math.pi * h, np.zeros_like(h)

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        pts = _as_points(w)
        r = _check_annulus(pts, self.inner_radius, 1.0, self.label)
        theta = np.mod(np.angle(pts), 2.0 * math.pi)
        return (np.log(r / self.inner_radius) + 1j * theta) / (2.0 * math.pi)


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
    def factor(self) -> complex:
        return cmath.exp(1j * self.beta)

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return self.factor * _as_points(z)

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        return (
            np.full(pts.shape, self.factor, dtype=np.complex128),
            np.zeros(pts.shape, dtype=np.complex128),
        )

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        return _as_points(w) / self.factor

    def pullback_radius(self, radius: float) -> float:
        return radius

    def pullback_abscissa(self, abscissa: float) -> float:
        raise UnsupportedVariantError("rotation does not preserve abscissa lines")


@dataclass(frozen=True)
class IdentityMap(MapFamily):
    """The identity ``z -> z``."""

    @property
    def label(self) -> str:
        return "identity"

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return _as_points(z).copy()

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        return (
            np.ones(pts.shape, dtype=np.complex128),
            np.zeros(pts.shape, dtype=np.complex128),
        )

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        return _as_points(w).copy()

    def pullback_radius(self, radius: float) -> float:
        return radius

    def pullback_abscissa(self, abscissa: float) -> float:
        return abscissa


@dataclass(frozen=True)
class ConjugationMap(MapFamily):
    """Complex conjugation ``z -> conj(z)`` (orientation reversing)."""

    @property
    def label(self) -> str:
        return "conjugation"

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return np.conj(_as_points(z))

    def wirtinger_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(z)
        return (
            np.zeros(pts.shape, dtype=np.complex128),
            np.ones(pts.shape, dtype=np.complex128),
        )

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        return np.conj(_as_points(w))

    def pullback_radius(self, radius: float) -> float:
        return radius


@dataclass(frozen=True)
class Composition(MapFamily):
    """Composite map ``outer after inner`` with chain-rule derivatives.

    Break circles of the outer map are pulled back through the inner map's
    radial profile (and abscissa break lines through its horizontal profile);
    if the inner map cannot pull them back, the composition is refused rather
    than silently mislocating the discontinuity set.
    """

    outer: MapFamily
    inner: MapFamily
    _break_radii: tuple[float, ...] = field(init=False, repr=False)
    _break_abscissae: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.outer.has_positive_real_cut:
            raise UnsupportedVariantError(
                "cannot compose through an outer map with a branch cut"
            )
        radii = list(self.inner.break_radii())
        for b in self.outer.break_radii():
            radii.append(self.inner.pullback_radius(b))
        abscissae = list(self.inner.break_abscissae())
        for a in self.outer.break_abscissae():
            abscissae.append(self.inner.pullback_abscissa(a))
        object.__setattr__(self, "_break_radii", tuple(sorted(set(radii))))
        object.__setattr__(self, "_break_abscissae", tuple(sorted(set(abscissae))))

    @property
    def label(self) -> str:
        return f"{self.outer.label} o {self.inner.label}"

    def break_radii(self) -> tuple[float, ...]:
        return self._break_radii

    def break_abscissae(self) -> tuple[float, ...]:
        return self._break_abscissae

    @property
    def has_positive_real_cut(self) -> bool:
        return self.inner.has_positive_real_cut

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

    def invert_many(self, w: np.ndarray) -> np.ndarray:
        return self.inner.invert_many(self.outer.invert_many(w))

    def pullback_radius(self, radius: float) -> float:
        return self.inner.pullback_radius(self.outer.pullback_radius(radius))

    def pullback_abscissa(self, abscissa: float) -> float:
        return self.inner.pullback_abscissa(self.outer.pullback_abscissa(abscissa))


def wirtinger_fd(family: MapFamily, z: complex, h: float = 1e-5) -> WirtingerPair:
    """Central-difference Wirtinger pair, for cross-checking the closed forms.

    Refuses stencils that straddle a break circle, a break line, or a branch
    cut, since a difference quotient across a discontinuity of the derivative
    estimates nothing.
    """
    require_real(h, "step h must be in (0, 1)", lambda v: 0.0 < v < 1.0)
    z = complex(z)
    stencil = [z + h, z - h, z + 1j * h, z - 1j * h, z]
    for b in family.break_radii():
        sides = [abs(p) - b for p in stencil]
        if min(abs(s) for s in sides) <= _BREAK_ATOL or (
            max(sides) > 0.0 > min(sides)
        ):
            raise BreakSetError(
                f"finite-difference stencil at {z!r} straddles the break "
                f"circle |w| = {b!r}"
            )
    for a in family.break_abscissae():
        sides = [p.real - a for p in stencil]
        if min(abs(s) for s in sides) <= _BREAK_ATOL or (
            max(sides) > 0.0 > min(sides)
        ):
            raise BreakSetError(
                f"finite-difference stencil at {z!r} straddles the break "
                f"line Re z = {a!r}"
            )
    if family.has_positive_real_cut and abs(z.imag) <= h and z.real > 0.0:
        raise BreakSetError(
            f"finite-difference stencil at {z!r} straddles the branch cut "
            "on the positive real axis"
        )
    fp = family.eval(z + h)
    fm = family.eval(z - h)
    gp = family.eval(z + 1j * h)
    gm = family.eval(z - 1j * h)
    fx = (fp - fm) / (2.0 * h)
    fy = (gp - gm) / (2.0 * h)
    return WirtingerPair(0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy))

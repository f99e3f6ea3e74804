"""Convex distortion gauges and pointwise inequality probes.

A gauge is an increasing function ``phi`` on ``[1, inf)`` used to weigh
distortion.  Each variant carries its *curvature floor* — the largest constant
``c`` with ``phi(t) >= phi(s) + phi'(s)(t-s) + (c/2)(t-s)^2`` on the part of
the domain where that holds — which is what the quadratic stability estimates
consume.  ``taylor_gap`` measures that inequality at a given curvature (the
one formula ``audit_taylor`` samples), and
``theta_check_many`` probes the elementary bound
``|z| - Re z >= (Im z)^2 / (2|z|)`` that underlies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, require_real

__all__ = ["ConvexGauge", "theta_check_many"]


@dataclass(frozen=True)
class ConvexGauge:
    """One of the gauge variants ``linear``, ``square``, ``power:p``, ``flat``.

    * ``linear``: ``phi(t) = t`` (curvature floor 0).
    * ``square``: ``phi(t) = t**2`` (curvature floor 2).
    * ``power:p``: ``phi(t) = t**p`` (floor ``p*(p-1)`` for ``p >= 2``, else 0).
    * ``flat``: ``phi(1) = 1`` and ``phi(t) = t + exp(-1/(t-1)**2)`` for
      ``t > 1``.  All derivatives of the exponential term vanish at ``t = 1``,
      so the gauge hugs the identity near 1; it is convex only on
      ``[1, 1 + sqrt(2/3)]`` and concave beyond, so its floor is 0 and it is
      *not* strictly convex on large intervals.
    """

    name: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.name not in ("linear", "square", "power", "flat"):
            raise InputError(f"unknown gauge name {self.name!r}")
        if self.name == "power":
            require_real(
                self.p,
                "power gauge exponent p must be a finite number > 1",
                lambda v: v > 1.0,
            )
        elif self.p is not None:
            raise InputError(f"gauge {self.name!r} takes no exponent")

    # --- constructors -----------------------------------------------------

    @classmethod
    def linear(cls) -> "ConvexGauge":
        return cls("linear")

    @classmethod
    def square(cls) -> "ConvexGauge":
        return cls("square")

    @classmethod
    def power(cls, p: float) -> "ConvexGauge":
        return cls("power", float(p))

    @classmethod
    def flat(cls) -> "ConvexGauge":
        return cls("flat")

    @classmethod
    def parse(cls, token: str) -> "ConvexGauge":
        """Parse ``linear | square | power:p | flat``."""
        tok = token.strip().lower()
        if tok == "linear":
            return cls.linear()
        if tok == "square":
            return cls.square()
        if tok == "flat":
            return cls.flat()
        if tok.startswith("power:"):
            try:
                p = float(tok.split(":", 1)[1])
            except ValueError:
                raise InputError(f"malformed gauge token {token!r}") from None
            return cls.power(p)
        raise InputError(f"malformed gauge token {token!r}")

    # --- descriptors --------------------------------------------------------

    @property
    def label(self) -> str:
        if self.name == "power":
            return f"power:{self.p:g}"
        return self.name

    @property
    def curvature_floor(self) -> float:
        if self.name == "square":
            return 2.0
        if self.name == "power":
            return self.p * (self.p - 1.0) if self.p >= 2.0 else 0.0
        return 0.0

    # --- evaluation ---------------------------------------------------------

    def _check_domain(self, t: np.ndarray) -> None:
        flat = np.atleast_1d(t)
        low = flat < 1.0 - 1e-12
        if np.any(low):
            bad = float(flat[np.flatnonzero(low)[0]])
            raise DomainError(f"gauge argument {bad!r} is below 1")

    def evaluate(self, t) -> np.ndarray | float:
        """``phi(t)`` for ``t >= 1`` (scalar in, scalar out)."""
        arr = np.asarray(t, dtype=np.float64)
        self._check_domain(arr)
        if self.name == "linear":
            out = arr.copy()
        elif self.name == "square":
            out = arr * arr
        elif self.name == "power":
            out = arr**self.p
        else:
            with np.errstate(divide="ignore", over="ignore"):
                d = arr - 1.0
                bump = np.where(d > 0.0, np.exp(-1.0 / np.where(d > 0.0, d, 1.0) ** 2), 0.0)
            out = np.where(d > 0.0, arr + bump, 1.0)
        if np.isscalar(t):
            return float(out)
        return out

    def right_derivative(self, t) -> np.ndarray | float:
        """Right derivative ``phi'(t)`` for ``t >= 1``."""
        arr = np.asarray(t, dtype=np.float64)
        self._check_domain(arr)
        if self.name == "linear":
            out = np.ones_like(arr)
        elif self.name == "square":
            out = 2.0 * arr
        elif self.name == "power":
            out = self.p * arr ** (self.p - 1.0)
        else:
            with np.errstate(divide="ignore", over="ignore"):
                d = arr - 1.0
                safe = np.where(d > 0.0, d, 1.0)
                bump = np.where(d > 0.0, np.exp(-1.0 / safe**2), 0.0)
            out = np.where(d > 0.0, 1.0 + bump * 2.0 / safe**3, 1.0)
        if np.isscalar(t):
            return float(out)
        return out

    def taylor_gap(self, s, t, c: float) -> np.ndarray | float:
        """``phi(t) - phi(s) - phi'(s)(t-s) - (c/2)(t-s)^2`` at curvature ``c``.

        Non-negative wherever the quadratic lower bound holds at ``c``; at
        the curvature floor a negative value is a genuine convexity defect of
        the gauge on ``[s, t]``.
        """
        s_arr = np.asarray(s, dtype=np.float64)
        t_arr = np.asarray(t, dtype=np.float64)
        gap = (
            self.evaluate(t_arr)
            - self.evaluate(s_arr)
            - self.right_derivative(s_arr) * (t_arr - s_arr)
            - 0.5 * c * (t_arr - s_arr) ** 2
        )
        if np.isscalar(s) and np.isscalar(t):
            return float(gap)
        return gap


def theta_check_many(z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe ``|z| - Re z >= (Im z)^2 / (2|z|)`` at each point of ``z``.

    Returns ``(theta, gap1, gap2)`` arrays: ``theta = (Im z)^2 / (2|z|)``
    (0 at ``z = 0``); ``gap1 = (|z| - Re z) - theta`` (always >= 0);
    ``gap2 = 2*theta*|z| - (Im z)^2`` (zero up to rounding).
    """
    pts = np.asarray(z, dtype=np.complex128)
    mod = np.abs(pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(mod > 0.0, pts.imag**2 / (2.0 * np.where(mod > 0.0, mod, 1.0)), 0.0)
    gap1 = (mod - pts.real) - theta
    gap2 = 2.0 * theta * mod - pts.imag**2
    return theta, gap1, gap2

"""Smooth compactly supported cutoffs shared by the decomposition and the
wave-packet construction.  All profiles derive from exp(-1/(1-s^2))."""

from __future__ import annotations

import numpy as np

_EDGE = 1.0 - 1e-9
# the integral of exp(-1/(1-s^2)) over (-1, 1), 0x1.c6a650a045c4ep-2: the
# double that adaptive quadrature (QUADPACK, epsabs=1e-14) returns for it
_BUMP_MASS = 0.44399381616807865


def _on_support(s, f) -> np.ndarray:
    """f(s, 1 - s^2) on |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < _EDGE
    sm = s[m]
    out[m] = f(sm, 1.0 - sm**2)
    return out


def bump(s: np.ndarray | float) -> np.ndarray:
    """exp(-1/(1-s^2)) on |s| < 1, zero outside."""
    return _on_support(s, lambda s, q: np.exp(-1.0 / q))


def bump_mass() -> float:
    """Integral of the unnormalized bump over its support."""
    return _BUMP_MASS


def bump_normalized(s) -> np.ndarray:
    """Bump scaled to unit integral."""
    return bump(s) / bump_mass()


def bump_d1(s) -> np.ndarray:
    """First derivative of the normalized bump."""
    return _on_support(s, lambda s, q: np.exp(-1.0 / q) * (-2.0 * s / q**2)) / bump_mass()


def bump_d2(s) -> np.ndarray:
    """Second derivative of the normalized bump."""
    return _on_support(s, lambda s, q: np.exp(-1.0 / q) * (
        4 * s**2 / q**4 - 2.0 / q**2 - 8 * s**2 / q**3)) / bump_mass()


def smooth_step(s) -> np.ndarray:
    """C^infinity monotone step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.where(s >= 1, 1.0, 0.0)
    mid = ~((s <= 0) | (s >= 1))
    sm = s[mid]  # the exponentials only where they are not 0 or 1
    a, b = np.exp(-1.0 / sm), np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out


def plateau_cutoff(s) -> np.ndarray:
    """Smooth indicator: 1 on |s| <= 1, 0 on |s| >= 2, monotone in between."""
    return smooth_step(2.0 - np.abs(np.asarray(s, dtype=float)))

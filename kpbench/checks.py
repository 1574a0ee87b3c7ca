"""Correctness checks on kpwave's outputs.

Every check is computed with numpy from the arrays and CSV files the
workloads produce, apart from kpwave, or rests on a property of the
method itself (conservation laws, commuting vector fields, symmetries of
the linearized flow).  None compares against a stored copy of an earlier
output.  A check that fails raises ``CheckFailure``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Tolerances.  The code sits far inside each of them (the figures in
# brackets are from seed 1), while a 0.1% rescaling of one snapshot, a
# sign flip or a 20% shift of one value lands far outside.
L2_DRIFT_TOL = 1e-9            # relative L^2 drift, nonlinear run   [7e-15]
H_DRIFT_TOL = 1e-9             # relative Hamiltonian drift          [1.5e-13]
XMEAN_TOL = 1e-12              # x-mean relative to max|u|           [4e-18]
NORM_CONST_TOL = 1e-12         # X-norm components along linear flow [1.5e-16]
LEAKAGE_TOL = 1e-6             # premise of the norm check (kpwave's own value)
PROFILE_RATIO_MAX = 2.5        # decompose ratios                    [0.50]
GAMMA_VARIATION_MAX = 0.15     # max|gamma| / min|gamma| - 1         [6%]
DRIFT_ROUNDOFF_TOL = 1e-12     # back-propagated drift / ||u||       [5e-16]
LINEARIZED_TOL = 1e-6          # linearized vs translated background [5e-8]
INGEST_TOL = 1e-12             # off-line spectral change / max coefficient


class CheckFailure(Exception):
    """An output of kpwave is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# spectral calculus on a periodic (nx, ny) sample array, independent of kpwave

def wavenumbers(shape, Lx: float, Ly: float):
    """x and y angular wavenumbers in FFT order as broadcastable meshes."""
    nx, ny = shape
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=Lx / nx)
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=Ly / ny)
    return kx[:, None], ky[None, :]


def apply_symbol(u: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Real part of the inverse FFT of symbol * FFT(u).

    Odd symbols are ambiguous at the Nyquist frequencies; callers zero
    them there so the result stays real.
    """
    return np.fft.ifft2(symbol * np.fft.fft2(u)).real


def dx_symbol(shape, Lx, Ly) -> np.ndarray:
    kx, ky = wavenumbers(shape, Lx, Ly)
    s = 1j * kx * np.ones_like(ky)
    s[shape[0] // 2, :] = 0.0
    return s


def dy_symbol(shape, Lx, Ly) -> np.ndarray:
    kx, ky = wavenumbers(shape, Lx, Ly)
    s = 1j * ky * np.ones_like(kx)
    s[:, shape[1] // 2] = 0.0
    return s


def dxinv_dy_symbol(shape, Lx, Ly) -> np.ndarray:
    """Symbol of dx^{-1} dy, i.e. eta / xi, zero on xi = 0 and the Nyquist lines."""
    kx, ky = wavenumbers(shape, Lx, Ly)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = ky / kx
    s[0, :] = 0.0
    s[shape[0] // 2, :] = 0.0
    s[:, shape[1] // 2] = 0.0
    return s


def l2(u: np.ndarray, Lx: float, Ly: float) -> float:
    nx, ny = u.shape
    return math.sqrt((Lx / nx) * (Ly / ny) * float(np.sum(u * u)))


def hamiltonian(u: np.ndarray, Lx: float, Ly: float) -> float:
    """H(u) = integral of u_x^2/2 + (dx^{-1} u_y)^2/2 - u^3/6, the energy
    the flow u_t = dx (dH/du) conserves."""
    nx, ny = u.shape
    ux = apply_symbol(u, dx_symbol(u.shape, Lx, Ly))
    v = apply_symbol(u, dxinv_dy_symbol(u.shape, Lx, Ly))
    dens = 0.5 * ux * ux + 0.5 * v * v - u**3 / 6.0
    return (Lx / nx) * (Ly / ny) * float(np.sum(dens))


def leakage(u: np.ndarray) -> float:
    """Share of L^2 mass outside the central half-box, whose sample
    indices run from n/4 to 3n/4 on each axis."""
    nx, ny = u.shape
    inside = np.zeros(u.shape, dtype=bool)
    inside[nx // 4: 3 * nx // 4 + 1, ny // 4: 3 * ny // 4 + 1] = True
    total = float(np.sum(u * u))
    return 0.0 if total == 0 else float(np.sum(u[~inside] ** 2)) / total


# ---------------------------------------------------------------------------
# CSV reading

def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


# ---------------------------------------------------------------------------
# nonlinear_evolve

def check_nonlinear_run(times, snaps, reloaded_times, reloaded, sup_rows,
                        Lx: float, Ly: float) -> None:
    """Checks on a nonlinear run: L^2 and H drift from the first snapshot
    to the last, zero x-mean, a bit-identical reload, and sup.csv."""
    require(len(snaps) >= 2, "nonlinear run stored fewer than two snapshots")
    first, last = snaps[0], snaps[-1]
    m0, m1 = l2(first, Lx, Ly), l2(last, Lx, Ly)
    require(m0 > 0, "nonlinear run started from the zero field")
    drift = abs(m1 - m0) / m0
    require(drift <= L2_DRIFT_TOL,
            f"relative L2 drift {drift:.3e} exceeds {L2_DRIFT_TOL:g}")
    h0, h1 = hamiltonian(first, Lx, Ly), hamiltonian(last, Lx, Ly)
    hdrift = abs(h1 - h0) / abs(h0)
    require(hdrift <= H_DRIFT_TOL,
            f"relative Hamiltonian drift {hdrift:.3e} exceeds {H_DRIFT_TOL:g}")
    for t, s in zip(times, snaps):
        mean = float(np.abs(s.mean(axis=0)).max())
        require(mean <= XMEAN_TOL * float(np.abs(s).max()),
                f"snapshot at t={t} has x-mean {mean:.3e}")
    require(list(reloaded_times) == list(times),
            f"reloaded time tags {list(reloaded_times)} != {list(times)}")
    for t, a, b in zip(times, snaps, reloaded):
        require(a.shape == b.shape and a.tobytes() == b.tobytes(),
                f"reloaded snapshot at t={t} is not bit-identical")
    require(len(sup_rows) == len(times), "sup.csv row count != snapshot count")
    for row, t, s in zip(sup_rows, times, reloaded):
        require(float(row["t[code-units]"]) == t, f"sup.csv time {row} != {t}")
        want = float(np.abs(s).max())
        got = float(row["sup_u"])
        require(got == want, f"sup.csv sup_u {got!r} != max|u| {want!r} at t={t}")


# ---------------------------------------------------------------------------
# snapshot_diagnostics

def check_norms(rows: list[dict], snaps, Lx: float, Ly: float) -> None:
    """On the exact linear flow ||u||, ||u_xxx||, ||Ly^2 dx u|| and ||S0 u||
    are constant in t, because those operators commute with the flow; the
    premise is that the field stays inside the central half-box."""
    require(len(rows) == len(snaps) >= 2, "norms.csv does not cover the snapshots")
    for s in snaps:
        leak = leakage(s)
        require(leak < LEAKAGE_TOL,
                f"leakage {leak:.3e} >= {LEAKAGE_TOL:g}: norm constancy undefined")
    for name in ("l2", "uxxx", "ly2dxu", "s0u"):
        vals = column(rows, name)
        require(bool(np.all(np.isfinite(vals))) and vals[0] > 0,
                f"norms.csv {name} not finite and positive")
        dev = float(np.abs(vals - vals[0]).max() / vals[0])
        require(dev <= NORM_CONST_TOL,
                f"norms.csv {name} varies by {dev:.3e} along the linear flow")
    for row, s in zip(rows, snaps):
        own = l2(s, Lx, Ly)
        got = float(row["l2"])
        require(abs(got - own) <= NORM_CONST_TOL * own,
                f"norms.csv l2 {got!r} != numpy L2 {own!r}")


def check_profile(rows: list[dict]) -> None:
    require(len(rows) > 0, "profile.csv is empty")
    for name in ("ratio_hyp", "ratio_hyp_x", "ratio_ell", "ratio_ell_x"):
        vals = column(rows, name)
        require(bool(np.all(np.isfinite(vals))), f"profile.csv {name} not finite")
        worst = float(vals.max())
        require(worst <= PROFILE_RATIO_MAX,
                f"profile.csv {name} reaches {worst:.3g} > {PROFILE_RATIO_MAX}")


def check_gamma(rows: list[dict]) -> None:
    """|gamma| is nearly constant along the ray, and abs_gamma is the
    modulus of (re_gamma, im_gamma)."""
    require(len(rows) >= 2, "gamma.csv has fewer than two samples")
    re, im, ab = (column(rows, k) for k in ("re_gamma", "im_gamma", "abs_gamma"))
    require(bool(np.allclose(np.hypot(re, im), ab, rtol=1e-12, atol=0)),
            "gamma.csv abs_gamma is not |re + i im|")
    require(float(ab.min()) > 0, "gamma.csv has a vanishing |gamma|")
    var = float(ab.max() / ab.min() - 1)
    require(var <= GAMMA_VARIATION_MAX,
            f"|gamma| varies by {var:.1%} along the ray (> {GAMMA_VARIATION_MAX:.0%})")


def check_scatter(rows: list[dict], norm_at: dict) -> None:
    """On the exact linear flow the back-propagated data do not move: the
    drift is roundoff relative to ||u(t)||."""
    require(len(rows) > 0, "scatter.csv is empty")
    for row in rows:
        t = float(row["t[code-units]"])
        ref = norm_at[t]
        d = float(row["back_propagated_data_drift"])
        require(0 <= d <= DRIFT_ROUNDOFF_TOL * ref,
                f"back-propagated drift {d:.3e} at t={t} is not roundoff of {ref:.3e}")


def check_ingestion(before: np.ndarray, after: np.ndarray, drops_nyquist: bool) -> None:
    """Zero-x-mode ingestion: a real result with zero x-mean that differs
    from the input only on the xi = 0 line (and on the x-Nyquist line when
    the ingestion drops it)."""
    require(np.isrealobj(after) and after.shape == before.shape,
            "ingested field is not a real array of the input's shape")
    scale = float(np.abs(np.fft.fft2(before)).max())
    diff = np.fft.fft2(before - after)
    diff[0, :] = 0.0
    if drops_nyquist:
        diff[before.shape[0] // 2, :] = 0.0
    off = float(np.abs(diff).max())
    require(off <= INGEST_TOL * scale,
            f"ingestion changed coefficients off the xi = 0 line ({off / scale:.3e})")
    mean = float(np.abs(after.mean(axis=0)).max())
    require(mean <= INGEST_TOL * float(np.abs(before).max()),
            f"ingested field has x-mean {mean:.3e}")


# ---------------------------------------------------------------------------
# linearized_evolve

def check_linearized(result: np.ndarray, background: np.ndarray, symbol: np.ndarray,
                     what: str, t: float) -> None:
    """A spatial translation of the background solves the linearized flow:
    evolving w0 = d u0 must give d u(t), computed here from the background."""
    ref = apply_symbol(background, symbol)
    scale = float(np.abs(ref).max())
    require(scale > 0, f"{what} of the background vanishes at t={t}")
    err = float(np.abs(result - ref).max()) / scale
    require(err <= LINEARIZED_TOL,
            f"linearized flow of {what} u0 misses {what} u(t) by {err:.3e} at t={t}")

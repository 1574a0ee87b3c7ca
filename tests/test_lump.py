"""The stepper against an exact nonlinear solution: the KP-I lump.

With X = x - c^2 t, u = 24 (c^2 y^2 + 3/c^2 - X^2) / (X^2 + c^2 y^2 + 3/c^2)^2
solves (u_t + u u_x + u_xxx)_x - u_yy = 0 (Manakov, Zakharov, Bordag, Its &
Matveev, Phys. Lett. A 63, 1977).  Its 1/r^2 tail leaves a periodization
error of O(L^-2), so doubling the box at a fixed spacing divides the error
by about 4.  A wrong sign or factor on u u_x moves the lump off its track:
evolving -lump, which is the lump under a flipped sign of u u_x, misses the
exact -lump by far more than either bound.
"""

import numpy as np
import pytest

from kpwave import Grid2D, RealField, SolverConfig, evolve, project_field

C, H, DT, T = 0.5, 0.5, 0.01, 1.0


def lump(grid: Grid2D, t: float) -> np.ndarray:
    x, y2, e = grid.XA - C**2 * t, C**2 * grid.YA**2, 3 / C**2
    return 24 * (y2 + e - x**2) / (x**2 + y2 + e) ** 2


def sup_error(n: int, sign: float = 1.0) -> float:
    """The relative sup error at T of the evolved projected lump (times
    `sign`) on the n x n box of spacing H."""
    g = Grid2D(n, n, n * H, n * H)
    u0 = project_field(RealField(g, sign * lump(g, 0.0), 0.0))
    u = evolve(u0, SolverConfig(dt=DT, t0=0.0, t_end=T), snapshot_times=[T]).snapshots[-1]
    exact = sign * lump(g, T)
    return float(np.abs(u.samples - exact).max() / np.abs(exact).max())


@pytest.fixture(scope="module")
def errors():
    return {n: sup_error(n) for n in (128, 256)}


def test_lump_stays_on_its_exact_track(errors):
    # measured 2.2e-2 and 5.4e-3
    assert errors[128] < 3e-2
    assert errors[256] < 7.5e-3


def test_error_falls_as_the_periodization_error_does(errors):
    # measured 3.98
    assert 3.5 < errors[128] / errors[256] < 4.5


def test_a_flipped_nonlinearity_leaves_the_track():
    # measured 0.67
    assert sup_error(128, sign=-1.0) > 0.3

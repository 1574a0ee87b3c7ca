"""The exact linear flow on the six canned grids: omega is formed on the
xi >= 0 rows with xi^3 as an exact product and negated onto the rest, so it
is exactly odd in xi, and the flow e^{i omega t} keeps the self-paired
columns of a half spectrum exactly Hermitian."""

import numpy as np
import pytest

from kpwave.evolution import _linear_flow
from kpwave.grids import full_lattice, ingest, omega_values
from kpwave.harness import theorem_suite_configs

CANNED = theorem_suite_configs()
ON_CANNED_GRIDS = pytest.mark.parametrize(
    "g", [c.grid for c in CANNED.values()], ids=list(CANNED))


def _half_spectrum(g, seed=5):
    """The half spectrum of white noise, so that every mode carries content."""
    return ingest(1e-2 * np.random.default_rng(seed).standard_normal(g.shape))


def _mirror(g):
    """The row of -xi for each row of xi."""
    return -np.arange(g.nx) % g.nx


@ON_CANNED_GRIDS
def test_omega_is_the_exact_product_formula_and_exactly_odd(g):
    xi = g.xi.copy()
    xi[0] = 1.0
    ref = (xi * xi * xi)[:, None] + (g.eta * g.eta)[None, :] / xi[:, None]
    ref[[0, g.nx // 2]] = 0.0
    w = omega_values(g)
    assert np.array_equal(w, ref)
    assert np.array_equal(w[_mirror(g)], -w)


@ON_CANNED_GRIDS
def test_the_flow_keeps_the_self_paired_columns_exactly_hermitian(g):
    c, m = _half_spectrum(g), _mirror(g)
    cols = (0, g.ny // 2)  # eta = 0 and the eta-Nyquist column: their own mirrors
    for j in cols:
        c[:, j] = 0.5 * (c[:, j] + np.conj(c[m, j]))
    assert all(np.array_equal(c[m, j], np.conj(c[:, j])) for j in cols)
    f = _linear_flow(c, g, 17.3)
    for j in cols:
        assert np.array_equal(f[m, j], np.conj(f[:, j])), j


@ON_CANNED_GRIDS
def test_a_zero_step_is_a_copy(g):
    c = _half_spectrum(g)
    f = _linear_flow(c, g, 0.0)
    assert np.array_equal(f, c) and not np.shares_memory(f, c)


@ON_CANNED_GRIDS
@pytest.mark.parametrize("t", [17.3, -4.0])
def test_the_flow_is_the_exponential_of_i_omega_t(g, t):
    half = _half_spectrum(g)
    for c in (half, full_lattice(half, g.ny)):
        ref = c * np.exp(1j * omega_values(g, c.shape[1]) * t)
        np.testing.assert_allclose(_linear_flow(c, g, t), ref, rtol=1e-15, atol=0)

"""Tests for admissible utilities and their lognormal conditional kernels."""
import math

import numpy as np
import pytest

from bondlab.errors import OutOfDomain, UnsupportedUtility, ValidationFailure
from bondlab.utility import (
    Utility,
    concavity_gap,
    conditional_coefficients,
    exponential_utility,
    inverse_marginal,
    kernel_weight_of_wealth,
    lambda_closed_form,
    log_utility,
    phi_closed_form,
    power_utility,
    quadratic_utility,
)

ALL_FAMILIES = [
    quadratic_utility(2.0),
    exponential_utility(1.0),
    power_utility(0.5),
    log_utility(),
]


def _domain_samples(u, rng, n=200):
    if u.domain_floor == 0.0:
        return rng.uniform(0.05, 10.0, size=n)
    return rng.uniform(-5.0, 10.0, size=n)


# --- family validation -------------------------------------------------------


def test_family_parameter_validation():
    with pytest.raises(UnsupportedUtility):
        Utility("cubic", 1.0)
    with pytest.raises(ValidationFailure):
        exponential_utility(-1.0)
    with pytest.raises(ValidationFailure):
        power_utility(1.5)
    with pytest.raises(ValidationFailure):
        power_utility(0.0)
    with pytest.raises(ValidationFailure):
        quadratic_utility(float("nan"))


def test_domain_and_marginal_range_by_family():
    assert log_utility().domain_floor == 0.0
    assert power_utility(0.5).domain_floor == 0.0
    assert quadratic_utility(1.0).domain_floor == -math.inf
    assert exponential_utility(1.0).domain_floor == -math.inf
    assert quadratic_utility(1.0).marginal_range == (-math.inf, math.inf)
    assert log_utility().marginal_range == (0.0, math.inf)


# --- inverse marginal ---------------------------------------------------------


def test_inverse_marginal_closed_values():
    assert inverse_marginal(log_utility(), 2.0) == pytest.approx(0.5, rel=1e-15)
    assert inverse_marginal(quadratic_utility(1.0), 1.0) == pytest.approx(0.0, abs=1e-15)
    assert inverse_marginal(power_utility(0.5), 4.0) == pytest.approx(0.0625, rel=1e-15)
    assert inverse_marginal(exponential_utility(2.0), 1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_inverse_marginal_round_trip(u):
    rng = np.random.default_rng(41)
    x = _domain_samples(u, rng)
    back = u.inverse_marginal(u.marginal(x))
    assert np.allclose(back, x, rtol=1e-12)
    # I is strictly decreasing on sampled marginal values
    y = np.sort(u.marginal(x))
    vals = u.inverse_marginal(y)
    assert np.all(np.diff(vals) <= 0.0)


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_inverse_marginal_rejects_out_of_range(u):
    lo, hi = u.marginal_range
    if lo == 0.0:
        with pytest.raises(OutOfDomain):
            u.inverse_marginal(0.0)
        with pytest.raises(OutOfDomain):
            u.inverse_marginal(-1.0)
    with pytest.raises(OutOfDomain):
        u.inverse_marginal(math.inf)


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_growth_bound_on_marginal_inverse(u):
    # |I(y)| + |y I'(y)| <= c1 + c2 y^r + c3 y^-r with r = growth_order
    rng = np.random.default_rng(42)
    lo, hi = u.marginal_range
    y = rng.uniform(0.01, 50.0, size=400) if lo == 0.0 else rng.uniform(-20.0, 20.0, size=400)
    if u.family == "quadratic":
        y = y[np.abs(y) > 1e-6]
    lhs = np.abs(u.inverse_marginal(y)) + np.abs(y * u.inverse_marginal_prime(y))
    r = u.growth_order
    ya = np.abs(y)
    rhs = 50.0 * (1.0 + np.power(ya, r) + np.power(ya, -r))
    assert np.all(lhs <= rhs)


# --- conditional kernels --------------------------------------------------------


def _lognormal_oracle(u, lam, xi_t, h, rng, n=400_000):
    """Brute-force E[xi_ratio I(lam xi_T) | xi_t] with xi_T = xi_t * ratio.

    Returns (Y_mc, se_Y, y_mc, se_y).
    """
    z = rng.standard_normal(n)
    ratio = np.exp(-0.5 * h + math.sqrt(h) * z)  # law of xi_T / xi_t
    xi_T = xi_t * ratio
    x_hat = u.inverse_marginal(lam * xi_T)
    y_weight = -lam * xi_T * u.inverse_marginal_prime(lam * xi_T)
    # Y_t = E_Q[X-hat | F_t] = E_P[ratio * X-hat]; same reweight for y_t
    a, b = ratio * x_hat, ratio * y_weight
    return (
        float(a.mean()),
        float(a.std(ddof=1) / math.sqrt(n)),
        float(b.mean()),
        float(b.std(ddof=1) / math.sqrt(n)),
    )


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_conditional_kernels_match_monte_carlo(u):
    rng = np.random.default_rng(43)
    lam, xi_t, h = 0.8, 1.1, 0.04
    Y, y = conditional_coefficients(u, lam, xi_t, h)
    Y_mc, se_Y, y_mc, se_y = _lognormal_oracle(u, lam, xi_t, h, rng)
    # absolute floor covers the degenerate log case where the integrand is
    # exactly constant and the SE collapses to roundoff
    assert abs(Y - Y_mc) <= 4.0 * se_Y + 1e-12
    assert abs(y - y_mc) <= 4.0 * se_y + 1e-12


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_conditional_kernel_terminal_layer_is_pathwise_identity(u):
    # at h = 0 the conditioning is trivial: Y_T = I(lam xi_T) per sample
    rng = np.random.default_rng(44)
    xi_T = np.exp(rng.normal(-0.02, 0.2, size=64))
    lam = 0.7
    Y, _ = conditional_coefficients(u, lam, xi_T, 0.0)
    assert np.allclose(Y, u.inverse_marginal(lam * xi_T), rtol=1e-12)


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_kernel_weight_of_wealth_matches_the_conditional_kernels(u):
    # y_t as a function of Y_t: the feedback form the HJB controls are checked against
    rng = np.random.default_rng(45)
    xi = np.exp(rng.normal(-0.02, 0.2, size=64))
    Y, y = conditional_coefficients(u, 0.7, xi, 0.05)
    assert np.allclose(kernel_weight_of_wealth(u, Y), y, rtol=1e-12)


def test_conditional_kernel_requires_positive_multiplier():
    with pytest.raises(OutOfDomain):
        conditional_coefficients(log_utility(), 0.0, 1.0, 0.1)
    with pytest.raises(OutOfDomain):
        conditional_coefficients(log_utility(), -1.0, 1.0, 0.1)


def test_log_kernel_is_v_over_xi():
    xi = np.array([0.5, 1.0, 2.0])
    Y, y = conditional_coefficients(log_utility(), 2.0, xi, 0.3)
    assert np.allclose(Y, 0.5 / xi, rtol=1e-15)
    assert np.allclose(y, Y, rtol=1e-15)


def test_exponential_kernel_weight_is_constant():
    u = exponential_utility(2.5)
    _, y = conditional_coefficients(u, 0.9, np.array([0.7, 1.3]), 0.2)
    assert np.allclose(y, 1.0 / 2.5, rtol=1e-15)


# --- closed-form multipliers -------------------------------------------------------


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_lambda_closed_form_solves_budget(u):
    H = 0.04
    v = 1.5 if u.family != "quadratic" else 1.2  # quadratic needs v < mu
    lam = lambda_closed_form(u, v, H)
    assert lam > 0.0
    assert phi_closed_form(u, lam, H) == pytest.approx(v, rel=1e-12)


def test_lambda_closed_form_known_values():
    assert lambda_closed_form(log_utility(), 4.0, 0.5) == pytest.approx(0.25, rel=1e-15)
    lam_q = lambda_closed_form(quadratic_utility(2.0), 1.2, 0.04)
    assert lam_q == pytest.approx(0.8 * math.exp(-0.04), rel=1e-14)
    lam_e = lambda_closed_form(exponential_utility(1.0), 1.5, 0.04)
    assert lam_e == pytest.approx(math.exp(-1.5 - 0.02), rel=1e-14)


def test_lambda_closed_form_signals_satiation_by_sign():
    lam = lambda_closed_form(quadratic_utility(1.0), 2.0, 0.04)  # v > mu
    assert lam < 0.0


# --- concavity certificate ---------------------------------------------------------


@pytest.mark.parametrize("u", ALL_FAMILIES, ids=lambda u: u.family)
def test_concavity_gap_is_nonpositive(u):
    rng = np.random.default_rng(45)
    xi = np.exp(rng.normal(-0.02, 0.2, size=500))
    lam = 0.9
    x_hat = u.inverse_marginal(lam * xi)
    if u.domain_floor == 0.0:
        x_other = x_hat * rng.uniform(0.2, 3.0, size=500)
    else:
        x_other = x_hat + rng.uniform(-2.0, 2.0, size=500)
    gap = concavity_gap(u, x_hat, x_other, lam * xi)
    assert np.max(gap) <= 1e-12

"""The benchmark's reference formulas at fixed points."""

import math

import pytest

import refs


def jackson(f, c, Q, terms=4000):
    """int_0^c f d_Q x summed directly."""
    return (1 - Q) * c * sum(f(c * Q**j) * Q**j for j in range(terms))


def test_thm4_moments_are_catalan_over_powers_of_four():
    assert [refs.thm4_moment(k) for k in range(7)] == [1.0, 0.0, 0.25, 0.0, 0.125, 0.0, 5 / 64]


def test_jacobi_moments_of_chebyshev_u_are_semicircle_moments():
    size = 7
    got = refs.jacobi_moments([0.0] * size, [0.5] * (size - 1), 12)
    assert got == pytest.approx([refs.thm4_moment(k) for k in range(13)], abs=1e-15)


@pytest.mark.parametrize("q,tau", [(0.5, 0.4), (0.8, 1.1)])
def test_thm5_moments_match_a_direct_jackson_sum(q, tau):
    Q, top = q * q, q ** (2 * tau)
    for k in range(9):
        direct = (jackson(lambda x: x**k, top, Q) - jackson(lambda x: x**k, -1.0, Q)) / (1 + top)
        assert refs.thm5_moment(k, q, tau) == pytest.approx(direct, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q", [0.3, 0.9])
def test_gamma_moments_match_a_direct_jackson_sum(q):
    for k in range(9):
        assert refs.gamma_moment(k, q) == pytest.approx(jackson(lambda x: x**k, 1.0, q * q), rel=1e-12)


@pytest.mark.parametrize(
    "q,tau,sigma,masses",
    [(0.7, 0.3, 0.5, 0), (0.5, 0.4, 1.2, 1), (0.6, 0.2, 2.4, 2)],
)
def test_thm6_moments_match_the_measure_route(q, tau, sigma, masses):
    from qhaar import QContext, thm6_measure

    assert len(refs.thm6_mass_points(q, tau, sigma)) == masses
    ref = refs.thm6_moments(q, tau, sigma, 12)
    assert ref[0] == pytest.approx(1.0, rel=1e-14)
    for k in range(13):
        got = thm6_measure((0.0,) * k + (1.0,), tau, sigma, QContext(q))
        assert refs.error(got, ref[k]) < 1e-11


def test_thm6_params_multiply_to_q_to_the_fourth():
    a, b, c, d = refs.thm6_params(0.6, 0.7, 1.3)
    assert a * b * c * d == pytest.approx(0.6**4, rel=1e-14)


def test_euler_product_sums_the_zero_phi_zero_series():
    q, z = 0.5, 0.1
    series, term = 0.0, 1.0
    for k in range(60):
        series += term
        term *= -z * q**k / (1 - q ** (k + 1))
    assert refs.euler_product(z, q) == pytest.approx(series, rel=1e-15)


def test_weight_total_is_the_truncated_geometric_sum():
    q, size = 0.7, 40
    assert refs.weight_total(q, size) == pytest.approx(
        (1 - q * q) * sum(q ** (2 * n) for n in range(size + 1)), rel=1e-14
    )


def test_error_switches_to_absolute_below_the_floor():
    assert refs.error(1.0 + 1e-9, 1.0) == pytest.approx(1e-9)
    assert refs.error(3e-7, 0.0) == pytest.approx(3e-7)
    assert math.isnan(refs.error(math.nan, 1.0))

"""Dual-route closed-form checks and the supporting identity suite."""
from __future__ import annotations

import cmath
import collections
import importlib.util
import json
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhaar import (
    AWParams,
    ConvergenceError,
    DomainError,
    JacobiCoeffs,
    MomentFunctional,
    QContext,
    QHaarError,
    SphericalParams,
    TruncationPolicyError,
    VerifyConfig,
    aw_integrate,
    aw_jacobi,
    aw_masses,
    aw_measure,
    bailey_check,
    bailey_raw_check,
    bailey_variant_residuals,
    build_rep,
    cqh_poisson,
    cqh_weight,
    d_coeff,
    eigen_basis,
    eigvec_norm_sq,
    eigvec_poly,
    element,
    gamma_measure,
    intermediate_check,
    mass_identity_check,
    moment_apply,
    monomials,
    q_integral,
    qpoch,
    sigma_limit_check,
    support_check,
    thm4_measure,
    thm5_measure,
    thm6_measure,
    thm6_params,
    verify,
    w87,
)
from qhaar import cli, haarverify, orthopoly, qseries, qsu2rep
from qhaar.cli import BAILEY_THETAS, MASS_CASES
from qhaar.spectral import _jacobi_moments

TAU = 0.4


class TestMonomials:
    def test_shape(self) -> None:
        ms = monomials(3)
        assert ms == ((1.0,), (0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0))

    def test_negative_degree(self) -> None:
        with pytest.raises(DomainError):
            monomials(-1)


class TestThm4Measure:
    def test_even_moments(self) -> None:
        # semicircle moments are scaled Catalan numbers
        assert thm4_measure([0.0, 0.0, 1.0]) == pytest.approx(0.25, abs=1e-12)
        assert thm4_measure([0.0, 0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.125, abs=1e-12)

    def test_odd_moments_vanish(self) -> None:
        for d in (1, 3, 5):
            coeffs = [0.0] * d + [1.0]
            assert thm4_measure(coeffs) == pytest.approx(0.0, abs=1e-12)

    def test_odd_moments_exactly_zero(self) -> None:
        # the semicircle's Jacobi diagonal is exactly 0, so J^j e_0 and J^(j+1) e_0
        # never share a nonzero row and every odd moment is a sum of exact zeros
        for d in range(1, 50, 2):
            assert thm4_measure([0.0] * d + [1.0]) == 0.0, d

    @given(x0=st.floats(-1, 1))
    @settings(max_examples=20, deadline=None)
    def test_odd_function_vanishes(self, x0: float) -> None:
        # sin(3x) through x^7, plus x0 x^3
        got = thm4_measure([0.0, 3.0, 0.0, x0 - 4.5, 0.0, 2.025, 0.0, -0.43392857142857144])
        assert got == pytest.approx(0.0, abs=1e-10)


class TestThm5Measure:
    def test_linear_closed_form(self, ctx: QContext) -> None:
        q = ctx.q
        want = (q ** (2 * TAU) - 1.0) / (1.0 + q * q)
        assert thm5_measure([0.0, 1.0], TAU, ctx) == pytest.approx(want, abs=1e-10)

    def test_quadratic_closed_form(self, ctx: QContext) -> None:
        q = ctx.q
        want = (1.0 + q ** (6 * TAU)) / ((1.0 + q ** (2 * TAU)) * (1.0 + q * q + q**4))
        got = thm5_measure([0.0, 0.0, 1.0], TAU, ctx)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.575640228719776, rel=1e-12)

    def test_unit_mass(self, ctx: QContext) -> None:
        assert thm5_measure([1.0], TAU, ctx) == pytest.approx(1.0, rel=1e-13)

    @given(
        c=st.floats(-3, 3),
        s=st.floats(-2, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, c: float, s: float) -> None:
        ctx = QContext(0.5)
        p1 = [0.1, c, 1.0]
        p2 = [c, 0.0, 0.0, 1.0]
        combo = [a + s * b for a, b in zip(p1 + [0.0], p2)]
        lhs = thm5_measure(combo, TAU, ctx)
        rhs = thm5_measure(p1, TAU, ctx) + s * thm5_measure(p2, TAU, ctx)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


class TestThm6Measure:
    def test_parameter_quadruple(self, ctx: QContext) -> None:
        q = ctx.q
        p = thm6_params(TAU, 1.5, ctx)
        assert p.a == pytest.approx(-(q**2.9), rel=1e-15)
        assert p.b == pytest.approx(-(q**-0.9), rel=1e-15)
        assert p.c == pytest.approx(q**2.1, rel=1e-15)
        assert p.d == pytest.approx(q**-0.1, rel=1e-15)

    def test_mass_counts_by_sigma(self, ctx: QContext) -> None:
        for sigma, count in ((0.6, 0), (1.2, 1), (1.5, 2)):
            spec = aw_measure(thm6_params(TAU, sigma, ctx))
            assert len(spec.masses) == count

    def test_frozen_mass_points(self, ctx: QContext) -> None:
        spec = aw_measure(thm6_params(TAU, 1.5, ctx))
        pts = sorted(x for x, _ in spec.masses)
        assert pts[0] == pytest.approx(-1.2009763571708807, rel=1e-12)
        assert pts[1] == pytest.approx(1.0024032270365502, rel=1e-12)
        weights = {round(x, 6): w for x, w in spec.masses}
        assert weights[-1.200976] == pytest.approx(0.30184977235412247, rel=1e-9)
        assert weights[1.002403] == pytest.approx(0.0314835609792108, rel=1e-9)

    def test_normalized(self, ctx: QContext) -> None:
        for sigma in (0.6, 1.5):
            assert thm6_measure([1.0], TAU, sigma, ctx) == pytest.approx(1.0, abs=1e-10)


# the grid the measure sides are cross-checked on, plus the two
# draws at distance 5e-4 from a thm6 mass threshold (q = 0.9, tau = 0.3)
GRID_Q = (0.3, 0.5, 0.7, 0.9, 0.95)
GRID_TAU = (0.05, 0.4, 1.2)
GRID_SIGMA = (0.3, 1.0, 1.5, 2.5)
EDGE_DRAWS = ((0.9, 0.3, 0.704744424783136), (0.9, 0.3, 1.295253202411172))
THM6_GRID = [(q, t, s) for q in GRID_Q for t in GRID_TAU for s in GRID_SIGMA] + list(EDGE_DRAWS)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


class TestGaussRuleMeasures:
    """The measure sides against the explicit measure builders."""

    @pytest.mark.parametrize("q", GRID_Q)
    def test_thm6_against_aw_measure(self, q: float) -> None:
        ctx = QContext(q)
        for qq, tau, sigma in THM6_GRID:
            if qq != q:
                continue
            spec = aw_measure(thm6_params(tau, sigma, ctx))
            for p in monomials(12):
                got = thm6_measure(p, tau, sigma, ctx)
                want = aw_integrate(spec, p)
                assert _close(got, want), (q, tau, sigma, p, got, want)

    @pytest.mark.parametrize("q", GRID_Q)
    def test_jackson_against_q_integral(self, q: float) -> None:
        ctx = QContext(q)
        ctx2 = ctx.squared()
        for k, p in enumerate(monomials(12)):
            want = q_integral(lambda x: x**k, 0.0, 1.0, ctx2)
            assert _close(gamma_measure(p, ctx), want), (q, k)
            for tau in GRID_TAU:
                hi = q ** (2.0 * tau)
                want = q_integral(lambda x: x**k, -1.0, hi, ctx2) / (1.0 + hi)
                assert _close(thm5_measure(p, tau, ctx), want), (q, tau, k)

    def test_thm5_right_endpoint_underflow(self, ctx: QContext) -> None:
        # q^(2 tau) underflows to 0: the Jackson integral over [-1, 0]
        Q = ctx.q**2
        assert ctx.q ** (2.0 * 600.0) == 0.0
        for k, p in enumerate(monomials(12)):
            want = (-1.0) ** k * (1.0 - Q) / (1.0 - Q ** (k + 1))
            assert _close(thm5_measure(p, 600.0, ctx), want), k

    def test_route_label_counts_masses(self) -> None:
        for q, tau, sigma in THM6_GRID:
            ctx = QContext(q)
            count = len(aw_measure(thm6_params(tau, sigma, ctx)).masses)
            cfg = VerifyConfig(ctx=ctx, tau=tau, sigma=sigma, N=160, max_degree=0)
            route = verify("thm6", cfg).rows[0].measure_route
            assert f"measure, {count} mass point(s)," in route, (q, tau, sigma, route)

    def test_no_measure_builder_called(self, monkeypatch, ctx: QContext) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("measure builder called")

        monkeypatch.setattr(orthopoly, "aw_measure", refuse)
        monkeypatch.setattr(qseries, "q_integral", refuse)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        cfg = VerifyConfig(ctx=ctx, tau=TAU, sigma=1.5, N=120, tol=1e-6)
        for theorem in ("thm4", "thm5", "thm6", "gamma"):
            assert verify(theorem, cfg).all_passed
        p = (0.0, 0.0, 1.0)
        thm4_measure(p)
        thm5_measure(p, TAU, ctx)
        thm6_measure(p, TAU, 1.5, ctx)
        gamma_measure(p, ctx)

    def test_non_finite_integral_refused(self, ctx: QContext) -> None:
        # at sigma = 200 the thm6 mass points sit near q^-200, and x^6 overflows
        with pytest.raises(ConvergenceError, match="not finite"):
            thm6_measure((0.0,) * 6 + (1.0,), TAU, 200.0, ctx)

    @pytest.mark.parametrize("integrand", [abs, math.cos, lambda x: x * x])
    def test_callable_refused(self, ctx: QContext, integrand) -> None:
        # a callable has no degree, so no finite sum of moments is exact for it
        for measure in (
            lambda: thm4_measure(integrand),
            lambda: thm5_measure(integrand, TAU, ctx),
            lambda: thm6_measure(integrand, TAU, 1.5, ctx),
            lambda: gamma_measure(integrand, ctx),
        ):
            with pytest.raises(DomainError, match="callable"):
                measure()

    @pytest.mark.parametrize(
        "call",
        [
            lambda ctx: thm4_measure([]),
            lambda ctx: thm5_measure([], 0.4, ctx),
            lambda ctx: gamma_measure([], ctx),
            lambda ctx: intermediate_check([], 0.4, 1.5, ctx),
        ],
    )
    def test_empty_coefficients_refused(self, ctx: QContext, call) -> None:
        with pytest.raises(DomainError, match="at least one coefficient"):
            call(ctx)

    MEASURE_CALLS = [
        lambda p, ctx: thm4_measure(p),
        lambda p, ctx: thm5_measure(p, TAU, ctx),
        lambda p, ctx: thm6_measure(p, TAU, 1.5, ctx),
        lambda p, ctx: gamma_measure(p, ctx),
        lambda p, ctx: intermediate_check(p, TAU, 1.5, ctx),
    ]

    @pytest.mark.parametrize("call", MEASURE_CALLS)
    @pytest.mark.parametrize(
        "p", [[1j, 1], [[1, 2], [3, 4]], "12", None, [[1.0], 2.0], [1.0, None], [1.0, "2"]]
    )
    def test_non_real_coefficients_refused(self, ctx: QContext, call, p) -> None:
        with pytest.raises(DomainError, match="real polynomial coefficients"):
            call(p, ctx)

    @pytest.mark.parametrize("call", MEASURE_CALLS)
    def test_ints_and_bools_accepted(self, ctx: QContext, call) -> None:
        want = call([1.0, 0.0, 3.0], ctx)
        assert call([1, 0, 3], ctx) == want
        assert call([True, False, 3], ctx) == want
        assert call(np.array([1, 0, 3]), ctx) == want


    @pytest.mark.parametrize(
        "call",
        [
            lambda: thm6_measure((0.0,) * 300 + (1.0,), 0.4, 2.5, QContext(0.05)),
            lambda: thm4_measure([0.0, math.inf]),
            lambda: intermediate_check([0.0, math.inf], 0.4, 1.5, QContext(0.05)),
            lambda: intermediate_check((0.0,) * 300 + (1.0,), 0.4, 2.5, QContext(0.05)),
        ],
    )
    def test_overflow_refused_without_warning(self, call) -> None:
        with pytest.raises(ConvergenceError, match="not finite"):
            call()


class TestNanParameters:
    """A nan tau or sigma the measure reads is refused by name before any matrix is built."""

    @pytest.mark.parametrize("degree", [1, 2, 6])
    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda p, ctx: thm5_measure(p, math.nan, ctx), "tau"),
            (lambda p, ctx: thm6_measure(p, math.nan, 1.5, ctx), "tau"),
            (lambda p, ctx: thm6_measure(p, TAU, math.nan, ctx), "sigma"),
            (lambda p, ctx: thm6_measure(p, math.nan, math.nan, ctx), "tau"),
        ],
    )
    def test_refused_with_name(self, ctx: QContext, call, named: str, degree: int) -> None:
        before = haarverify._measure_jacobi.cache_info()
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{named} must be a number, got nan$"):
                call((0.0,) * degree + (1.0,), ctx)
        after = haarverify._measure_jacobi.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_polynomial_batch_refuses_nan_tau(self, ctx: QContext) -> None:
        with pytest.raises(DomainError, match="tau must be a number"):
            haarverify._measure_integrals("thm5", ctx, math.nan, 1.5, monomials(4))

    def test_unread_parameters_ignored(self, ctx: QContext) -> None:
        # thm4 reads neither, thm5 not sigma, gamma neither: their keys drop them
        polys = monomials(4)
        assert haarverify._measure_integrals("thm4", ctx, math.nan, math.nan, polys)[0] == [
            thm4_measure(p) for p in polys
        ]
        assert haarverify._measure_integrals("thm5", ctx, TAU, math.nan, polys)[0] == [
            thm5_measure(p, TAU, ctx) for p in polys
        ]
        assert haarverify._measure_integrals("gamma", ctx, math.nan, math.nan, polys)[0] == [
            gamma_measure(p, ctx) for p in polys
        ]

    def test_infinite_parameters_unchanged(self, ctx: QContext) -> None:
        # q^(2 tau) = 0 at tau = inf: the Jackson interval is [-1, 0]
        assert thm5_measure([0.0, 1.0], math.inf, ctx) == pytest.approx(-1.0 / (1.0 + ctx.q**2))
        for tau, sigma in ((TAU, math.inf), (-math.inf, 1.5)):
            with pytest.raises(ConvergenceError, match="leaves the float range"):
                thm6_measure([1.0, 1.0], tau, sigma, ctx)

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda ctx: thm6_params(math.nan, 1.5, ctx), "tau"),
            (lambda ctx: thm6_params(TAU, math.nan, ctx), "sigma"),
            (lambda ctx: support_check(math.nan, 1.5, ctx), "tau"),
            (lambda ctx: bailey_check(0.3, TAU, math.nan, ctx), "sigma"),
            (lambda ctx: bailey_raw_check(0.3, math.nan, 1.5, ctx), "tau"),
            (lambda ctx: bailey_variant_residuals(0.3, TAU, math.nan, ctx), "sigma"),
            (lambda ctx: intermediate_check([0, 1], math.nan, 1.5, ctx), "tau"),
            (lambda ctx: sigma_limit_check([0, 1], math.nan, ctx), "tau"),
            (lambda ctx: eigvec_norm_sq(1, 0, math.nan, ctx), "tau"),
            (lambda ctx: eigen_basis(ctx, math.nan, 40, 3), "tau"),
            (lambda ctx: d_coeff(ctx, math.nan, 1, 0, -1, 0), "tau"),
            (lambda ctx: eigvec_poly(3, 1, 0, math.nan, ctx), "tau"),
            (lambda ctx: moment_apply(MomentFunctional("L", ctx, math.nan), [0, 1]), "tau"),
            (lambda ctx: qsu2rep.spectral_trace(ctx, math.nan, [0, 1]), "tau"),
        ],
    )
    def test_library_refuses_with_name(self, ctx: QContext, call, named: str) -> None:
        # the power-range check that every tau and sigma passes refuses nan first
        with pytest.raises(DomainError, match=f"^{named} must be a number, got nan$"):
            call(ctx)

    def test_sigma_limit_refuses_before_traces(self, monkeypatch, ctx: QContext) -> None:
        def no_trace(*args, **kwargs):
            raise AssertionError("a trace ran")

        monkeypatch.setattr(haarverify, "haar_trace", no_trace)
        with pytest.raises(DomainError, match="^tau must be a number, got nan$"):
            sigma_limit_check([0, 1], math.nan, ctx)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ctx: thm6_params(math.inf, 1.5, ctx),
            lambda ctx: support_check(TAU, -math.inf, ctx),
            lambda ctx: bailey_check(0.3, TAU, math.inf, ctx),
            lambda ctx: intermediate_check([0, 1], math.inf, 1.5, ctx),
            lambda ctx: sigma_limit_check([0, 1], -math.inf, ctx),
        ],
    )
    def test_infinite_library_parameters_unchanged(self, ctx: QContext, call) -> None:
        with pytest.raises(ConvergenceError, match="leaves the float range"):
            call(ctx)


class TestPlainCoefficients:
    """Tuples and lists of Python floats and ints skip numpy with _as_coeffs's bits and refusals."""

    PLAIN = [
        (0.0, 1.0), [0.0, 1.0], (1.0,), [-0.0, 2.5, 0.0], (math.nan, 1.0), [math.inf, -1e-320],
        (1, 0, 3), [1, 0, 3], [0], [2**53 + 1], [2**64 + 1, -(2**63) - 1], [10**400], (1, 2.5),
        (True, False), [True, 3], [1.0, True],
    ]
    INPUTS = PLAIN + [
        np.float64(2.0), [np.float64(2.0), 1.0], (np.float32(0.1),), np.int64(3), 2.5, 3, True,
        np.array([1.0, 2.0]), np.array([1, 2]), np.array([True]), np.array([]),
        [Fraction(1, 3), 1.0], [Decimal("1")],
        [[1.0, 2.0]], [[1.0], 2.0], ((1.0,),), [1j, 1], (1.0, 2j), 1j,
        "12", None, [1.0, None], [1.0, "2"], (), [], len, lambda x: x,
    ]

    @staticmethod
    def outcome(convert, p):
        try:
            return [float.hex(c) for c in convert(p)]
        except Exception as exc:  # noqa: BLE001 - the refusal is what is compared
            return type(exc), str(exc)

    @pytest.mark.parametrize("p", INPUTS, ids=lambda p: f"{type(p).__name__}:{p!r:.20}")
    def test_same_bits_and_refusals(self, p) -> None:
        want = self.outcome(lambda p: haarverify._as_coeffs(p).tolist(), p)
        assert self.outcome(haarverify._coeff_list, p) == want

    @pytest.mark.parametrize("p", PLAIN, ids=lambda p: f"{type(p).__name__}:{p!r:.20}")
    def test_measures_match_the_array_route(self, ctx: QContext, p) -> None:
        # an object array goes through _as_coeffs: the same value, or the same refusal
        def values(p) -> list:
            out = []
            for measure in (
                lambda p: thm4_measure(p),
                lambda p: thm5_measure(p, TAU, ctx),
                lambda p: thm6_measure(p, TAU, 1.5, ctx),
                lambda p: gamma_measure(p, ctx),
            ):
                try:
                    out.append(float.hex(measure(p)))
                except Exception as exc:  # noqa: BLE001
                    out.append((type(exc), str(exc)))
            return out

        assert values(p) == values(np.array(p, dtype=object))


# the grid of the moment oracle, and the mass-threshold draws (EDGE_DRAWS)
# rounded to four digits, as the edge commands of tests/test_contract.py pass them
BIT_Q = (0.01, 0.05, 0.3, 0.5, 0.9, 0.95, 0.99, 0.995)
BIT_TAU = (0.0, 0.4, 1.2)
BIT_SIGMA = (0.3, 1.5)
ROUNDED_EDGE_DRAWS = ((0.9, 0.3, 0.7047), (0.9, 0.3, 1.2953))
EPS = np.finfo(float).eps


def _oracle(jacobi: JacobiCoeffs, degree: int) -> tuple[list[float], list[float]]:
    """e_0^T J^k e_0 and e_0^T |J|^k e_0, k = 0..degree, in 50-digit arithmetic on the float J."""
    d, e = (a.tolist() for a in jacobi.arrays(degree // 2 + 1))
    n = len(d)
    out = []
    with mpmath.workdps(50):
        J = mpmath.zeros(n, n)
        for i in range(n):
            J[i, i] = mpmath.mpf(d[i])
        for i in range(n - 1):
            J[i, i + 1] = J[i + 1, i] = mpmath.mpf(e[i])
        for M in (J, J.apply(abs)):
            # e_0^T M^k e_0 = (M^h e_0) . (M^(k-h) e_0), both factors on rows < n
            powers = [mpmath.matrix([1] + [0] * (n - 1))]
            for _ in range(degree - degree // 2):
                powers.append(M * powers[-1])
            out.append([float(mpmath.fdot(powers[k // 2], powers[k - k // 2]))
                        for k in range(degree + 1)])
    return out[0], out[1]


def _assert_oracle(measure, jacobi: JacobiCoeffs, degree: int = 24) -> None:
    """_jacobi_moments within k eps e_0^T |J|^k e_0 of the 50-digit e_0^T J^k e_0, and
    measure(x^k) equal to moment k."""
    got = _jacobi_moments(jacobi, degree)
    want, scale = _oracle(jacobi, degree)
    for k in range(degree + 1):
        assert abs(got[k] - want[k]) <= k * EPS * scale[k], (k, got[k], want[k], scale[k])
    assert [measure(p) for p in monomials(degree)] == got


# every recurrence entry below lies within RECURRENCE_C eps of its 50-digit value, d_n
# scaled by its terms and e_n relatively (worst seen: 25 and 40, thm6 at q = 0.995)
RECURRENCE_C = 64
RECURRENCE_ROWS = 24
# the two tau = 0 thm6 points of ROADMAP's Baseline: verify exits 1 at the first, 3 at the second
TAU0_BASELINE = ((0.066, 0.0, 2.1), (0.05, 0.0, 2.5))


def _aw_entries(params: AWParams) -> list[tuple]:
    """(d_n, scale of d_n, e_n) of KLS (2010) eq. 14.1.5 in 50 digits, n < RECURRENCE_ROWS.

    d_n = (a + 1/a - A_n - C_n) / 2 and e_n^2 = A_n C_{n+1} / 4 for every
    ordering of the parameters; a is the one of largest modulus, as the
    float formula takes it, so the scale (|a| + |1/a| + |A_n| + |C_n|) / 2
    sums the terms that formula adds.
    """
    mpf = mpmath.mpf
    a, b, c, d = sorted(map(mpf, params.as_tuple()), key=abs, reverse=True)
    Q = mpf(params.ctx.q)
    abcd = a * b * c * d

    def A(n: int):
        num = (1 - a * b * Q**n) * (1 - a * c * Q**n) * (1 - a * d * Q**n) * (1 - abcd * Q ** (n - 1))
        return num / (a * (1 - abcd * Q ** (2 * n - 1)) * (1 - abcd * Q ** (2 * n)))

    def C(n: int):
        if n == 0:
            return mpf(0)
        num = a * (1 - Q**n) * (1 - b * c * Q ** (n - 1)) * (1 - b * d * Q ** (n - 1))
        num *= 1 - c * d * Q ** (n - 1)
        return num / ((1 - abcd * Q ** (2 * n - 2)) * (1 - abcd * Q ** (2 * n - 1)))

    out = []
    for n in range(RECURRENCE_ROWS):
        terms = (a, 1 / a, -A(n), -C(n))
        out.append((sum(terms) / 2, sum(map(abs, terms)) / 2, mpmath.sqrt(A(n) * C(n + 1) / 4)))
    return out


def _jackson_entries(lo: float, hi: float, q: float) -> list[tuple]:
    """(d_n, scale of d_n, e_n) of the base-q^2 Jackson integral on [lo, hi], 50 digits.

    Its monic polynomials are big q-Jacobi P_n(x/s; a, b, c; Q) at a = b = 1
    (KLS 2010, eq. 14.5.3), orthogonal on [c s Q, s Q]: the endpoint of larger
    modulus is s Q.  Then d_n = s (1 - A_n - C_n), with scale
    |s| (1 + |A_n| + |C_n|), and e_n^2 = s^2 A_n C_{n+1}.
    """
    mpf = mpmath.mpf
    far, near = (lo, hi) if -lo > hi else (hi, lo)
    Qf = q**2
    Q, s, c, a, b = mpf(Qf), mpf(far / Qf), mpf(near / far), mpf(1), mpf(1)

    def A(n: int):
        num = (1 - a * Q ** (n + 1)) * (1 - a * b * Q ** (n + 1)) * (1 - c * Q ** (n + 1))
        return num / ((1 - a * b * Q ** (2 * n + 1)) * (1 - a * b * Q ** (2 * n + 2)))

    def C(n: int):
        if n == 0:
            return mpf(0)  # printed 0/0 at a = b = 1
        # -a c Q^(n+1) (1 - Q^n) (1 - a b Q^n / c) (1 - b Q^n), written to allow c = 0
        num = a * Q ** (n + 1) * (1 - Q**n) * (a * b * Q**n - c) * (1 - b * Q**n)
        return num / ((1 - a * b * Q ** (2 * n)) * (1 - a * b * Q ** (2 * n + 1)))

    out = []
    for n in range(RECURRENCE_ROWS):
        terms = (s, -s * A(n), -s * C(n))
        out.append((sum(terms), sum(map(abs, terms)), abs(s) * mpmath.sqrt(A(n) * C(n + 1))))
    return out


def _assert_entries(jacobi: JacobiCoeffs, exact: list[tuple]) -> None:
    d, e = (a.tolist() for a in jacobi.arrays(RECURRENCE_ROWS + 1))
    for n, (dn, scale, en) in enumerate(exact):
        assert abs(d[n] - dn) <= RECURRENCE_C * EPS * scale, (n, d[n], dn, scale)
        assert abs(e[n] - en) <= RECURRENCE_C * EPS * en, (n, e[n], en)


def _assert_thm6_entries(q: float, tau: float, sigma: float) -> None:
    """thm6's Askey-Wilson matrix and the two kernel matrices of intermediate_check."""
    ctx = QContext(q)
    params = [thm6_params(tau, sigma, ctx)]
    params += [AWParams(a, b, 0.0, 0.0, ctx.squared()) for a, b in haarverify._asc_pair(tau, sigma, q)]
    for p in params:
        _assert_entries(aw_jacobi(p), _aw_entries(p))


class TestRecurrenceOracle:
    """aw_jacobi and _jackson_jacobi against KLS (14.1.5) and (14.5.3) in 50 digits,
    on the same float parameters, for n < RECURRENCE_ROWS."""

    @pytest.mark.parametrize("q", BIT_Q)
    def test_grid(self, q: float) -> None:
        ctx = QContext(q)
        with mpmath.workdps(50):
            _assert_entries(haarverify._jackson_jacobi(0.0, 1.0, ctx), _jackson_entries(0.0, 1.0, q))
            for tau in BIT_TAU:
                hi = q ** (2.0 * tau)
                _assert_entries(haarverify._jackson_jacobi(-1.0, hi, ctx), _jackson_entries(-1.0, hi, q))
                for sigma in BIT_SIGMA:
                    _assert_thm6_entries(q, tau, sigma)

    @pytest.mark.parametrize("q, tau, sigma", TAU0_BASELINE)
    def test_tau_zero_diagonal_is_rounding(self, q: float, tau: float, sigma: float) -> None:
        # the symmetric measure's exact diagonal is 0, and the float one, up to
        # a few ulps of a + 1/a, stays within the same absolute bound
        with mpmath.workdps(50):
            _assert_thm6_entries(q, tau, sigma)
            exact = _aw_entries(thm6_params(tau, sigma, QContext(q)))
            assert all(abs(dn) < 1e-40 for dn, _, _ in exact)


class TestJacobiMoments:
    """The measure sides against e_0^T J^k e_0 in 50 digits on the same float J, k <= 24."""

    def test_thm4(self) -> None:
        _assert_oracle(thm4_measure, haarverify._measure_jacobi("thm4", None, 0.0, 0.0))

    @pytest.mark.parametrize("q", BIT_Q)
    def test_jackson_and_askey_wilson(self, q: float) -> None:
        ctx = QContext(q)
        jacobi = haarverify._measure_jacobi
        _assert_oracle(lambda p: gamma_measure(p, ctx), jacobi("gamma", ctx, 0.0, 0.0))
        for tau in BIT_TAU:
            _assert_oracle(lambda p: thm5_measure(p, tau, ctx), jacobi("thm5", ctx, tau, 0.0))
            for sigma in BIT_SIGMA:
                _assert_oracle(
                    lambda p: thm6_measure(p, tau, sigma, ctx), jacobi("thm6", ctx, tau, sigma)
                )

    @pytest.mark.parametrize("q, tau, sigma", ROUNDED_EDGE_DRAWS + EDGE_DRAWS)
    def test_mass_threshold_draws(self, q: float, tau: float, sigma: float) -> None:
        ctx = QContext(q)
        _assert_oracle(
            lambda p: thm6_measure(p, tau, sigma, ctx),
            haarverify._measure_jacobi("thm6", ctx, tau, sigma),
        )

    def test_high_degree(self, ctx: QContext) -> None:
        # degree 66 reads 34 rows; the sum over coefficients adds its own rounding
        c = np.random.default_rng(7).uniform(-1.0, 1.0, 67)
        for theorem, measure in (
            ("thm4", lambda: thm4_measure(c)),
            ("thm5", lambda: thm5_measure(c, TAU, ctx)),
            ("thm6", lambda: thm6_measure(c, TAU, 1.5, ctx)),
            ("gamma", lambda: gamma_measure(c, ctx)),
        ):
            want, scale = _oracle(haarverify._measure_jacobi(theorem, ctx, TAU, 1.5), 66)
            bound = 2 * 66 * EPS * float(np.abs(c) @ scale)
            assert abs(measure() - float(c @ want)) <= bound, theorem

    @pytest.mark.parametrize(
        "argv",
        [["verify", "all"], ["verify", "all", "--q", "0.9", "--trunc-n", "200", "--max-degree", "9"]],
    )
    def test_verify_stdout(self, capsys, argv: list) -> None:
        # each printed row's measure side is its monomial's moment, within the oracle's bound
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        cfg = out["config"]
        ctx = QContext(cfg["q"])
        labels = [haarverify._poly_label(k) for k in range(cfg["max_degree"] + 1)]
        for report in out["reports"]:
            rows = report["rows"]
            assert [r["label"] for r in rows] == labels
            theorem = rows[0]["theorem"]
            jacobi = haarverify._measure_jacobi(theorem, ctx, cfg["tau"], cfg["sigma"])
            want, scale = _oracle(jacobi, cfg["max_degree"])
            for k, row in enumerate(rows):
                assert abs(row["measure_side"] - want[k]) <= k * EPS * scale[k], (theorem, k, row)


class TestMeasureJacobiCache:
    """_measure_jacobi: one Jacobi matrix per measure, its entries grown, not rebuilt."""

    @pytest.mark.parametrize("q", BIT_Q)
    def test_moments_independent_of_degree(self, q: float) -> None:
        # a polynomial's value is the same alone (its own degree) and in a
        # verify batch (the largest degree), which reads more rows
        ctx = QContext(q)
        cases = [("thm4", None, 0.0, 0.0), ("gamma", ctx, 0.0, 0.0)]
        for tau in BIT_TAU:
            cases.append(("thm5", ctx, tau, 0.0))
            cases += [("thm6", ctx, tau, sigma) for sigma in BIT_SIGMA]
        for case in cases:
            top = _jacobi_moments(haarverify._measure_jacobi.__wrapped__(*case), 66)
            jacobi = haarverify._measure_jacobi(*case)
            for degree in (0, 1, 2, 3, 6, 13, 24, 66):
                assert _jacobi_moments(jacobi, degree) == top[: degree + 1], (case, degree)

    @pytest.mark.parametrize("q", BIT_Q)
    def test_moments_independent_of_order(self, q: float) -> None:
        # the kept moments, asked in any order, are those of a fresh pass per degree
        ctx = QContext(q)
        cases = [("thm4", None, 0.0, 0.0), ("gamma", ctx, 0.0, 0.0)]
        for tau in BIT_TAU:
            cases.append(("thm5", ctx, tau, 0.0))
            cases += [("thm6", ctx, tau, sigma) for sigma in BIT_SIGMA]
        degrees = list(range(25))
        orders = (degrees, degrees[::-1], random.Random(q).sample(degrees, len(degrees)))

        def fresh(case: tuple) -> JacobiCoeffs:
            # a matrix with an empty memo, thm4's included
            built = haarverify._measure_jacobi.__wrapped__(*case)
            return JacobiCoeffs(built.diag, built.offdiag)

        for case in cases:
            want = [[float.hex(m) for m in _jacobi_moments(fresh(case), d)] for d in degrees]
            for order in orders:
                jacobi = fresh(case)
                for d in order:
                    got = [float.hex(m) for m in _jacobi_moments(jacobi, d)]
                    assert got == want[d], (case, order[0], d)

    def test_second_loop_adds_no_step(self) -> None:
        # x^0..x^12 keeps 14 moments on 7 rows (x^1 continues the pass 12
        # degrees ahead, to x^13); a second loop, in either order, is
        # answered from them and swaps in nothing
        haarverify._measure_jacobi.cache_clear()
        ctx = QContext(0.63)
        polys = monomials(12)
        first = [thm6_measure(p, TAU, 1.5, ctx) for p in polys]
        jacobi = haarverify._measure_jacobi("thm6", ctx, TAU, 1.5)
        state = jacobi._entries
        assert [len(part) for part in state] == [7, 6, 14, 7]
        assert [thm6_measure(p, TAU, 1.5, ctx) for p in polys] == first
        assert [thm6_measure(p, TAU, 1.5, ctx) for p in polys[::-1]] == first[::-1]
        assert jacobi._entries is state

    def test_odd_degree_keeps_its_odd_moment(self) -> None:
        # degree 5 reads 3 rows: its last Jv is cut, so moment 6 is not kept
        built = haarverify._measure_jacobi.__wrapped__("gamma", QContext(0.5), 0.0, 0.0)
        jacobi = JacobiCoeffs(built.diag, built.offdiag)
        moments = _jacobi_moments(jacobi, 5)
        d, e, kept, v = jacobi._entries
        assert (len(d), len(e), list(kept), len(v)) == (3, 2, moments, 3)

    def test_sizes_share_one_matrix(self, ctx: QContext) -> None:
        haarverify._measure_jacobi.cache_clear()
        for p in monomials(12):
            thm6_measure(p, TAU, 1.5, ctx)
        info = haarverify._measure_jacobi.cache_info()
        assert (info.misses, info.hits) == (1, 12)

    def test_monomial_loop_builds_one_matrix(self) -> None:
        # x^0..x^12 on a new measure: one matrix, grown to 7 rows and no
        # further, since x^1's read-ahead to x^13 needs no more rows than x^12
        haarverify._measure_jacobi.cache_clear()
        ctx = QContext(0.61)
        for p in monomials(12):
            thm6_measure(p, TAU, 1.5, ctx)
        info = haarverify._measure_jacobi.cache_info()
        assert (info.misses, info.hits) == (1, 12)
        assert len(haarverify._measure_jacobi("thm6", ctx, TAU, 1.5)._entries[0]) == 7

    @pytest.mark.parametrize("degree, continuations", [(12, 1), (24, 2)])
    def test_monomial_loop_continues_at_most_twice(
        self, monkeypatch, degree: int, continuations: int
    ) -> None:
        # each ask the kept moments miss grows the memo once: the exact first
        # ask at x^0, then continuations that read 12 degrees ahead (x^1 to
        # x^13, and x^14 to x^26)
        grown = JacobiCoeffs._grown
        calls = collections.Counter()

        def counting(jacobi, *args):
            calls[id(jacobi)] += 1
            return grown(jacobi, *args)

        monkeypatch.setattr(JacobiCoeffs, "_grown", counting)
        haarverify._measure_jacobi.cache_clear()
        ctx = QContext(0.7)
        for measure in (
            lambda p: thm5_measure(p, TAU, ctx),
            lambda p: thm6_measure(p, TAU, 1.5, ctx),
            lambda p: gamma_measure(p, ctx),
        ):
            calls.clear()
            values = [measure(p) for p in monomials(degree)]
            assert list(calls.values()) == [1 + continuations]
            assert values == [measure(p) for p in monomials(degree)]

    @pytest.mark.parametrize("theorem", ["thm5", "thm6", "gamma"])
    def test_grown_matrix_matches_fresh(self, theorem: str, ctx: QContext) -> None:
        jacobi = haarverify._measure_jacobi(theorem, ctx, TAU, 1.5)
        fresh = haarverify._measure_jacobi.__wrapped__(theorem, ctx, TAU, 1.5)
        for size in (3, 7, 5, 9):
            assert jacobi.arrays(size)[0].tobytes() == fresh.arrays(size)[0].tobytes()

    def test_thm4_shared_across_contexts(self) -> None:
        haarverify._measure_jacobi.cache_clear()
        polys = monomials(6)
        haarverify._measure_integrals("thm4", QContext(0.3), 0.4, 1.5, polys)
        haarverify._measure_integrals("thm4", QContext(0.7), 1.2, 0.6, polys)
        for p in polys:
            thm4_measure(p)
        info = haarverify._measure_jacobi.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1 + 7, 1)

    def test_key_ignores_unused_parameters(self, ctx: QContext) -> None:
        haarverify._measure_jacobi.cache_clear()
        polys = monomials(6)
        for tau, sigma in ((TAU, 0.6), (TAU, 1.5)):
            haarverify._measure_integrals("thm5", ctx, tau, sigma, polys)
        for tau, sigma in ((0.0, 0.6), (TAU, 1.5), (1.2, 2.5)):
            haarverify._measure_integrals("gamma", ctx, tau, sigma, polys)
        for sigma in (0.6, 1.5):
            haarverify._measure_integrals("thm6", ctx, TAU, sigma, polys)
        info = haarverify._measure_jacobi.cache_info()
        # one matrix each for thm5 and gamma, two for thm6
        assert (info.misses, info.hits) == (4, 3)

    def test_verify_and_measure_functions_share_matrix(self, ctx: QContext) -> None:
        haarverify._measure_jacobi.cache_clear()
        p = (0.0,) * 6 + (1.0,)
        row = verify("thm5", VerifyConfig(ctx=ctx, tau=TAU, sigma=0.6, N=80, max_degree=6)).rows[6]
        before = haarverify._measure_jacobi.cache_info()
        assert thm5_measure(p, TAU, ctx) == row.measure_side
        after = haarverify._measure_jacobi.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)

    @pytest.mark.parametrize(
        "jacobi",
        [
            # the refusals of tests/test_spectral.py: a reversed Jackson
            # interval, and an Askey-Wilson square that overflows
            lambda: haarverify._jackson_jacobi(2.0, 1.0, QContext(0.5)),
            lambda: aw_jacobi(AWParams(1e-320, 1e-320, 0.0, 0.0, QContext(0.25))),
        ],
    )
    def test_refusal_raises_again(self, monkeypatch, jacobi) -> None:
        shared = jacobi()
        monkeypatch.setattr(haarverify, "_measure_jacobi", lambda *args: shared)
        for _ in range(2):
            with pytest.raises(DomainError, match="e_0"):
                thm5_measure((0.0, 0.0, 1.0), 0.0, QContext(0.5))
        assert shared._entries == ((), (), (), ())

    def test_public_refusal_raises_again(self) -> None:
        # q^(2 tau) = 1e209 at tau = -200: e_0^2 = s^2 A_0 C_1 overflows
        ctx = QContext(0.3)
        for _ in range(2):
            with pytest.raises(DomainError, match="e_0"):
                thm5_measure((0.0, 0.0, 1.0), -200.0, ctx)

    def test_operator_route_reads_no_measure(self, ctx: QContext) -> None:
        haarverify._measure_jacobi.cache_clear()
        support_check(TAU, 1.5, ctx, size=60)
        sigma_limit_check((0.0, 0.0, 1.0), TAU, ctx)
        assert cli.main(["spectrum", "rho-sigma", "--trunc-n", "40"]) == 0
        assert haarverify._measure_jacobi.cache_info().misses == 0


class TestPowerRange:
    """A tau or sigma whose powers of q overflow is refused, not an OverflowError."""

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda ctx: thm6_params(0.4, 1e6, ctx), "sigma = 1000000.0"),
            (lambda ctx: bailey_check(0.3, 0.4, 1e6, ctx), "sigma = 1000000.0"),
            (lambda ctx: bailey_raw_check(0.3, 0.4, 1e6, ctx), "sigma = 1000000.0"),
            (lambda ctx: support_check(0.4, 1e6, ctx), "sigma = 1000000.0"),
            (lambda ctx: thm5_measure([0, 1], -1e6, ctx), "tau = -1000000.0"),
            (lambda ctx: thm6_measure([0, 1], -1e6, 1.5, ctx), "tau = -1000000.0"),
            (lambda ctx: intermediate_check([0, 1], 0.4, 1e6, ctx), "sigma = 1000000.0"),
            (lambda ctx: sigma_limit_check([0, 1], -1e6, ctx), "tau = -1000000.0"),
            # the eigenvector route and the L functional, each where tau enters
            (lambda ctx: eigvec_norm_sq(1, 0, -1e6, ctx), "tau = -1000000.0"),
            (lambda ctx: eigen_basis(ctx, -1e6, 40, 3), "tau = -1000000.0"),
            (lambda ctx: d_coeff(ctx, 1e6, 1, 0, -1, 0), "tau = 1000000.0"),
            (lambda ctx: eigvec_poly(3, 1, 0, 1e6, ctx), "tau = 1000000.0"),
            (lambda ctx: moment_apply(MomentFunctional("L", ctx, -1e6), [0, 1]), "tau = -1000000.0"),
        ],
    )
    def test_refused_naming_parameter(self, ctx: QContext, call, named: str) -> None:
        with pytest.raises(ConvergenceError, match=f"{named}.* float range"):
            call(ctx)

    def test_eigvec_poly_checks_only_the_powers_it_forms(self, ctx: QContext) -> None:
        # past the underflow of q^{n(n-1)/2} the component is 0 and q^{-n tau}
        # is never formed, so tau = 10 is accepted at n = 200 (q^{-2000} would
        # overflow); at n = 3 the same tau takes q^{-30}
        assert eigvec_poly(200, 1, 0, 10.0, ctx) == 0.0
        assert eigvec_poly(3, 1, 0, 10.0, ctx) != 0.0
        with pytest.raises(ConvergenceError, match="tau = 400.0"):
            eigvec_poly(3, 1, 0, 400.0, ctx)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.97])
    def test_refuses_where_power_overflows(self, q: float) -> None:
        # the check and Python's float power agree one unit either side of
        # the edge exponent -ln(float max) / |ln q|
        edge = math.log(sys.float_info.max) / math.log(q)
        for x in (edge - 1.0, edge + 1.0):
            try:
                q**x
                overflows = False
            except OverflowError:
                overflows = True
            try:
                qsu2rep._check_power_range(q, x, tau=x)
                refused = False
            except ConvergenceError:
                refused = True
            assert overflows == refused, (q, x)


class TestVerify:
    def test_thm4_all_pass(self, ctx: QContext) -> None:
        cfg = VerifyConfig(ctx=ctx, N=80)
        report = verify("thm4", cfg)
        assert report.all_passed
        assert report.max_rel_err < 1e-10
        assert [r.label for r in report.rows[:3]] == ["1", "x", "x^2"]
        assert report.rows[2].measure_side == pytest.approx(0.25, abs=1e-12)

    def test_thm4_rel_err_floor(self, ctx: QContext) -> None:
        report = verify("thm4", VerifyConfig(ctx=ctx, N=80))
        row = report.rows[1]  # p = x, measure side 0
        assert abs(row.measure_side) < 1e-10
        assert row.rel_err == row.abs_err

    def test_thm5_all_pass(self, ctx: QContext) -> None:
        cfg = VerifyConfig(ctx=ctx, tau=TAU, N=160)
        report = verify("thm5", cfg)
        assert report.all_passed
        assert report.max_rel_err < 1e-10
        q = ctx.q
        assert report.rows[1].measure_side == pytest.approx(
            (q ** (2 * TAU) - 1.0) / (1.0 + q * q), abs=1e-10
        )

    def test_thm6_all_pass_with_masses(self, ctx: QContext) -> None:
        cfg = VerifyConfig(ctx=ctx, tau=TAU, sigma=1.5, N=120, tol=1e-6)
        report = verify("thm6", cfg)
        assert report.all_passed
        assert report.max_rel_err < 1e-9
        assert "2 mass point(s)" in report.rows[0].measure_route

    def test_gamma_all_pass(self, ctx: QContext) -> None:
        cfg = VerifyConfig(ctx=ctx, N=80)
        report = verify("gamma", cfg)
        assert report.all_passed
        assert report.max_rel_err < 1e-9
        assert report.rows[0].trace_side == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.5])
    def test_degree_24(self, q: float) -> None:
        # only the truncation policy limits the degree
        cfg = VerifyConfig(ctx=QContext(q), N=80, max_degree=24)
        for theorem in ("thm4", "thm5", "thm6", "gamma"):
            report = verify(theorem, cfg)
            assert report.all_passed and report.max_rel_err < 1e-12, theorem
            assert report.rows[-1].label == "x^24"

    @pytest.mark.parametrize("theorem", [4, "5", 6, "thm7"])
    def test_unknown_theorem_refused(self, ctx: QContext, theorem) -> None:
        cfg = VerifyConfig(ctx=ctx, N=80, max_degree=0)
        with pytest.raises(DomainError):
            verify(theorem, cfg)

    def test_non_finite_side_refused(self) -> None:
        # at sigma = 200 the thm6 element and measure leave the float range;
        # the rows must not carry nan or inf
        cfg = VerifyConfig(ctx=QContext(0.5), tau=TAU, sigma=200.0, N=160)
        with pytest.raises(ConvergenceError, match="not finite"):
            verify("thm6", cfg)

    def test_routes_recorded(self, ctx: QContext) -> None:
        cfg = VerifyConfig(ctx=ctx, N=80, max_degree=1)
        row = verify("thm4", cfg).rows[1]
        assert row.trace_route == "phase-averaged weighted trace, 1 angle (real gauge), N=80"
        assert "Chebyshev" in row.measure_route

    @pytest.mark.parametrize(
        "theorem, degree, grid",
        [
            ("thm4", 6, "1 angle (real gauge)"),
            ("thm5", 6, "1 angle (real gauge)"),
            ("gamma", 12, "1 angle (real gauge)"),
            ("thm6", 1, "3 angles"),
            ("thm6", 6, "7 angles"),
            ("thm6", 7, "9 angles"),
            ("thm6", 12, "13 angles"),
        ],
    )
    def test_trace_route_names_the_phase_grid(self, ctx, theorem, degree, grid) -> None:
        cfg = VerifyConfig(ctx=ctx, N=80, max_degree=degree)
        routes = {r.trace_route for r in verify(theorem, cfg).rows}
        assert routes == {f"phase-averaged weighted trace, {grid}, N=80"}


class TestVerifyConfig:
    def test_validation(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            VerifyConfig(ctx=ctx, N=0)
        with pytest.raises(DomainError):
            VerifyConfig(ctx=ctx, tol=0.0)

    def test_truncation_policy_trip(self) -> None:
        # q close to 1 demands hundreds of basis states for degree 6; the
        # trace route enforces the policy at its element's reach
        with pytest.raises(TruncationPolicyError):
            verify("thm4", VerifyConfig(ctx=QContext(0.99), N=50))

    def test_gamma_reach_zero_minimum(self) -> None:
        # gamma* gamma is diagonal, so its policy minimum does not grow with
        # the degree: N = 13 covers degree 6 at q = 0.5, tol 1e-7
        report = verify("gamma", VerifyConfig(QContext(0.5), N=13))
        assert report.all_passed

    def test_max_degree(self, ctx: QContext) -> None:
        # verify checks x^0 ... x^max_degree, so a degree that is not a nonnegative int is refused
        for bad in (-1, 2.0, True, "6", None):
            with pytest.raises(DomainError, match="max_degree"):
                VerifyConfig(ctx=ctx, max_degree=bad)


class TestIntermediate:
    def test_no_mass_case(self, ctx: QContext) -> None:
        for coeffs in monomials(3):
            rep = intermediate_check(coeffs, TAU, 0.6, ctx)
            assert rep.vs_measure < 1e-9
            assert rep.vs_trace < 1e-9
            assert rep.support_separation == math.inf

    def test_two_mass_case(self, ctx: QContext) -> None:
        for coeffs in monomials(6):
            rep = intermediate_check(coeffs, TAU, 1.5, ctx)
            assert rep.vs_measure < 1e-9
            assert rep.vs_trace < 1e-9
            assert rep.support_separation == pytest.approx(2.2033795842074308, rel=1e-6)

    # q up to 0.99, and at q = 0.9, tau = 0.3 sigmas whose distance kappa
    # to a mass threshold falls from 5e-4 to 1e-7 (a2 = 1 exactly at 1.3)
    GRID = [(q, TAU, s) for q in (0.3, 0.5, 0.9, 0.95, 0.98, 0.99) for s in (0.6, 1.5)] + [
        (0.9, 0.3, s) for s in (0.7047, 0.70438, 1.30028, 1.3)
    ]

    @pytest.mark.parametrize("q, tau, sigma", GRID)
    def test_grid_through_degree_12(self, q: float, tau: float, sigma: float) -> None:
        ctx = QContext(q)
        for coeffs in monomials(12):
            rep = intermediate_check(coeffs, tau, sigma, ctx)
            assert rep.vs_measure <= 1e-13, (coeffs, rep)
            assert rep.vs_trace <= 1e-9, (coeffs, rep)

    def test_no_quadrature_or_closed_kernel(self, monkeypatch) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature rule or closed-form kernel reached")

        for name in ("aw_measure", "aw_integrate", "asc_poisson", "_asc_poisson_form"):
            monkeypatch.setattr(orthopoly, name, refuse)
        monkeypatch.setattr(haarverify, "_asc_poisson_form", refuse)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        for coeffs in monomials(6):
            rep = intermediate_check(coeffs, 0.3, 0.7047, QContext(0.9))
            assert rep.vs_measure <= 1e-13

    def test_kernel_matrices_grow_once(self) -> None:
        ctx = QContext(0.95)
        polys = monomials(6)
        haarverify._kernel_jacobi.cache_clear()
        first = intermediate_check(polys[3], TAU, 0.6, ctx)
        kernels = [
            haarverify._kernel_jacobi(AWParams(a, b, 0.0, 0.0, ctx.squared()))
            for a, b in haarverify._asc_pair(TAU, 0.6, ctx.q)
        ]
        assert haarverify._kernel_jacobi.cache_info().misses == 2
        intermediate_check(polys[6], TAU, 0.6, ctx)
        grown = [k._entries for k in kernels]
        # a second monomial of no higher degree computes no recurrence entry
        again = intermediate_check(polys[5], TAU, 0.6, ctx)
        assert all(k._entries is g for k, g in zip(kernels, grown))
        assert haarverify._kernel_jacobi.cache_info().misses == 2
        # a prefix of the grown matrices is the matrix a fresh build gives
        haarverify._kernel_jacobi.cache_clear()
        for p, want in ((polys[5], again), (polys[3], first)):
            got = intermediate_check(p, TAU, 0.6, ctx)
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want]

    def test_tau_zero_rejected(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            intermediate_check([0.0, 1.0], 0.0, 0.6, ctx)

    def test_needs_coefficients(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            intermediate_check(lambda x: x, TAU, 0.6, ctx)


class TestBailey:
    THETAS = (0.4, 0.9, math.pi / 2, 2.0, 2.7)

    def test_assembled_density_identity(self, ctx: QContext) -> None:
        for theta in self.THETAS:
            assert bailey_check(theta, TAU, 1.5, ctx) < 1e-8

    def test_no_mass_parameters(self, ctx: QContext) -> None:
        for theta in (math.pi / 2, math.pi / 3):
            assert bailey_check(theta, TAU, 0.6, ctx) < 1e-8

    def test_raw_two_term_relation(self, ctx: QContext) -> None:
        for theta in self.THETAS:
            assert bailey_raw_check(theta, TAU, 1.5, ctx) < 1e-8

    def test_variant_prefactor_inconsistent(self, ctx: QContext) -> None:
        # the off-by-sign prefactor misses by O(1); keeping both residuals
        # makes the discrepancy observable instead of silently patched
        cons, var = bailey_variant_residuals(1.1, TAU, 1.5, ctx)
        assert cons < 1e-8
        assert 0.05 < var < 50.0

    def test_tau_zero_rejected(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            bailey_check(1.0, 0.0, 0.6, ctx)
        with pytest.raises(DomainError):
            bailey_variant_residuals(1.0, 0.0, 0.6, ctx)

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
    def test_matches_separate_term_formulas(self, q: float) -> None:
        ctx = QContext(q)
        for tau in (0.2, 0.4, 1.0):
            for sigma in (0.6, 1.5, 2.5):
                for theta in BAILEY_THETAS:
                    args = (theta, tau, sigma, ctx)
                    cons, var = bailey_variant_residuals(*args)
                    assert cons.hex() == _ref_display_residual(*args, 1.0 + q ** (-2.0 * tau)).hex()
                    assert var.hex() == _ref_display_residual(*args, 1.0 - q ** (-2.0 * tau)).hex()
                    assert bailey_check(*args).hex() == cons.hex()
                    assert bailey_raw_check(*args).hex() == _ref_raw_check(*args).hex()

    def test_each_kernel_evaluated_once(self, ctx: QContext, monkeypatch) -> None:
        calls = collections.Counter()

        def counted(name):
            fn = getattr(haarverify, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("_asc_poisson_form", "_aw_theta_weight_form", "_aw_h0_form"):
            monkeypatch.setattr(haarverify, name, counted(name))
        bailey_variant_residuals(1.1, TAU, 1.5, ctx)
        assert calls == {"_asc_poisson_form": 2, "_aw_theta_weight_form": 3, "_aw_h0_form": 3}
        # an array of angles: two kernels per angle, each weight one array form
        calls.clear()
        bailey_variant_residuals(BAILEY_THETAS, TAU, 1.5, ctx)
        assert len(BAILEY_THETAS) == 5
        assert calls == {"_asc_poisson_form": 10, "_aw_theta_weight_form": 3, "_aw_h0_form": 3}


    def test_raw_check_one_qpoch_call(self, ctx: QContext, monkeypatch) -> None:
        calls = []
        real = qseries.qpoch

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(qseries, "qpoch", counting)
        bailey_raw_check(1.1, TAU, 1.5, ctx)
        assert [len(a) for a in calls] == [27]

    @pytest.mark.parametrize("q", (0.05, 0.5, 0.9))
    def test_array_theta_matches_scalar_calls(self, q: float) -> None:
        ctx = QContext(q)
        thetas = np.array([[0.1, 0.3, 0.9], [1.4, 2.2, 3.0]])
        for tau, sigma in ((0.4, 1.5), (0.3, 0.7047), (1.2, 2.5)):
            cons, var, raw = bailey_variant_residuals(thetas, tau, sigma, ctx, raw=True)
            assert cons.shape == var.shape == raw.shape == thetas.shape
            alone = bailey_raw_check(thetas, tau, sigma, ctx)
            assert [v.hex() for v in alone.ravel().tolist()] == [
                v.hex() for v in raw.ravel().tolist()
            ]
            got = zip(thetas.ravel().tolist(), cons.ravel().tolist(), var.ravel().tolist(),
                      raw.ravel().tolist())
            for theta, c, v, r in got:
                want_c, want_v = bailey_variant_residuals(theta, tau, sigma, ctx)
                assert (c.hex(), v.hex()) == (want_c.hex(), want_v.hex())
                assert r.hex() == bailey_raw_check(theta, tau, sigma, ctx).hex()
                assert r.hex() == _ref_raw_check(theta, tau, sigma, ctx).hex()

    def test_scalar_theta_gives_floats(self, ctx: QContext) -> None:
        values = bailey_variant_residuals(1.1, TAU, 1.5, ctx, raw=True)
        assert [type(v) for v in values] == [float, float, float]
        assert type(bailey_raw_check(1.1, TAU, 1.5, ctx)) is float
        assert type(bailey_check(1.1, TAU, 1.5, ctx)) is float

    def test_array_theta_one_qpoch_call_and_h0_once(self, ctx: QContext, monkeypatch) -> None:
        qpoch_calls, h0_forms = [], []
        real_qpoch, real_h0 = qseries.qpoch, haarverify._aw_h0_form

        def counting(*args, **kwargs):
            qpoch_calls.append(len(args[0]))
            return real_qpoch(*args, **kwargs)

        monkeypatch.setattr(qseries, "qpoch", counting)
        monkeypatch.setattr(haarverify, "_aw_h0_form", lambda *a: h0_forms.append(a) or real_h0(*a))
        bailey_variant_residuals(BAILEY_THETAS, TAU, 1.5, ctx, raw=True)
        # 3 normalizations of 8, then per angle 2 kernels of 10, weights of
        # 3, 3 and 5 and the 27 factorials of the raw relation
        assert qpoch_calls == [3 * 8 + len(BAILEY_THETAS) * (2 * 10 + 3 + 3 + 5 + 27)]
        assert len(h0_forms) == 3

    def test_underflowing_raw_parameters_refused(self, ctx: QContext) -> None:
        # e f = q^{2 + 2 sigma - 2 tau} underflows; dividing by it used to
        # raise ZeroDivisionError
        with pytest.raises(ConvergenceError, match="underflow"):
            bailey_raw_check(0.3, TAU, 1000.0, ctx)

    NON_FINITE_THETA = {
        "bailey_check theta=inf": lambda c: bailey_check(math.inf, TAU, 1.5, c),
        "bailey_check theta=-inf": lambda c: bailey_check(-math.inf, TAU, 1.5, c),
        "bailey_check theta=nan": lambda c: bailey_check(math.nan, TAU, 1.5, c),
        "bailey_variant_residuals theta=inf": lambda c: bailey_variant_residuals(math.inf, TAU, 1.5, c),
        "bailey_variant_residuals theta=nan": lambda c: bailey_variant_residuals([0.3, math.nan], TAU, 1.5, c),
        "bailey_variant_residuals raw theta=-inf": lambda c: bailey_variant_residuals(
            [-math.inf], TAU, 1.5, c, raw=True
        ),
    }

    @pytest.mark.parametrize("name", sorted(NON_FINITE_THETA))
    def test_non_finite_theta_refused_by_name(self, name: str, ctx: QContext) -> None:
        with pytest.raises(QHaarError, match="theta must be finite"):
            self.NON_FINITE_THETA[name](ctx)

def _ref_display_residual(theta, tau, sigma, ctx, second_denom):
    # the kernel-pair identity with every term written out per prefactor
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    (a1, b1), (a2, b2) = haarverify._asc_pair(tau, sigma, q)
    p6 = thm6_params(tau, sigma, ctx)
    params4 = (p6.a, p6.b, p6.c, p6.d)
    x = math.cos(theta)
    lhs = (1.0 - Q) * orthopoly.asc_poisson(Q, x, x, a1, b1, ctx2) * orthopoly.aw_theta_weight(
        theta, a1, b1, 0.0, 0.0, ctx2
    ) / ((1.0 + q ** (2.0 * tau)) * orthopoly.aw_h0(a1, b1, 0.0, 0.0, ctx2)) + (
        1.0 - Q
    ) * orthopoly.asc_poisson(Q, x, x, a2, b2, ctx2) * orthopoly.aw_theta_weight(
        theta, a2, b2, 0.0, 0.0, ctx2
    ) / (second_denom * orthopoly.aw_h0(a2, b2, 0.0, 0.0, ctx2))
    rhs = orthopoly.aw_theta_weight(theta, *params4, ctx2) / orthopoly.aw_h0(*params4, ctx2)
    return abs(lhs - rhs) / abs(rhs)


def _ref_raw_check(theta, tau, sigma, ctx):
    # the two-term 8W7 relation with each denominator product formed in full
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    a = -(q ** (2.0 - 2.0 * tau))
    b = Q
    z = cmath.exp(1j * theta)
    c = -(q ** (1.0 - sigma - tau)) * z
    d = c.conjugate()
    e = q ** (1.0 + sigma - tau) * z
    f = e.conjugate()
    lower = (a * Q / c, a * Q / d, a * Q / e, a * Q / f, b * c / a, b * d / a, b * e / a, b * f / a)
    term1 = w87(a, b, c, d, e, f, ctx2, Q) / qpoch(b / a, ctx2)
    pref = math.prod(
        qpoch([a * Q, c, d, e, f, b * Q / c, b * Q / d, b * Q / e, b * Q / f], ctx2).tolist()
    ) / math.prod(qpoch([*lower, b * b * Q / a], ctx2).tolist())
    term2 = (
        pref
        * w87(b * b / a, b, b * c / a, b * d / a, b * e / a, b * f / a, ctx2, Q)
        / qpoch(a / b, ctx2)
    )
    rhs = math.prod(
        qpoch(
            [
                a * Q,
                a * Q / (c * d),
                a * Q / (c * e),
                a * Q / (c * f),
                a * Q / (d * e),
                a * Q / (d * f),
                a * Q / (e * f),
            ],
            ctx2,
        ).tolist()
    ) / math.prod(qpoch(list(lower), ctx2).tolist())
    return abs(term1 + term2 - rhs) / abs(rhs)


class TestMassIdentity:
    SETS = (
        (1.6, 0.3, 0),
        (2.5, -0.2, 1),
        (-1.8660659830736148, 0.2332649334213164, 0),
    )

    def test_identity_holds(self, ctx: QContext) -> None:
        for a, b, k in self.SETS:
            assert mass_identity_check(a, b, k, ctx) < 1e-9

    def test_guards(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            mass_identity_check(0.9, 0.3, 0, ctx)  # |a| <= 1
        with pytest.raises(DomainError):
            mass_identity_check(1.6, 0.7, 0, ctx)  # ab >= 1
        with pytest.raises(DomainError):
            mass_identity_check(1.6, 0.3, 1, ctx)  # |a q| <= 1

    def test_ladder_edge_refused(self, ctx: QContext) -> None:
        # |a| q^k in (1, 1 + MASS_EDGE_TOL]: no mass of the measure sits there
        a = 2.0 * (1.0 + 0.5 * orthopoly.MASS_EDGE_TOL)
        assert 1.0 < a * ctx.q <= 1.0 + orthopoly.MASS_EDGE_TOL
        assert list(orthopoly._mass_ladder(a, ctx.q)) == [0]
        with pytest.raises(DomainError, match="k=1.*beyond the mass ladder"):
            mass_identity_check(a, 0.3, 1, ctx)
        assert mass_identity_check(a, 0.3, 0, ctx) < 1e-9

    def test_sweep_script_walks_the_library_ladder(self, capsys) -> None:
        # scripts/identity_sweep.py checks the rungs of _mass_ladder and stops
        # where |a| q^k lands in (1, 1 + MASS_EDGE_TOL], as a = 1.6 at k = 1 does here
        path = Path(__file__).resolve().parent.parent / "scripts" / "identity_sweep.py"
        spec = importlib.util.spec_from_file_location("identity_sweep", path)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        ctx = QContext(0.6250000000000005)
        assert 1.0 < 1.6 * ctx.q <= 1.0 + orthopoly.MASS_EDGE_TOL
        sweep.mass_ladder(ctx)
        rungs = [line.split()[2] for line in capsys.readouterr().out.splitlines()[1:]]
        assert rungs == ["k=0:", "k=0:", "k=1:", "k=0:", "k=1:"]

    def test_cases_batched_like_scalar_calls(self, monkeypatch) -> None:
        calls = []
        real = qseries.qpoch

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(qseries, "qpoch", counting)
        for q in (0.3, 0.5, 0.95):
            ctx = QContext(q)
            sets = [(a, b, k) for a, b, k in self.SETS if abs(a) * q**k > 1.0]
            a, b, k = (np.array(v) for v in zip(*sets))
            calls.clear()
            got = mass_identity_check(a, b, k, ctx)
            assert len(calls) == 1 and got.shape == (len(sets),)
            want = [mass_identity_check(*case, ctx) for case in sets]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
            ref = [_ref_mass_residual(*case, ctx) for case in sets]
            assert [v.hex() for v in want] == [v.hex() for v in ref]

    def test_bad_case_named_before_any_factorial(self, monkeypatch) -> None:
        monkeypatch.setattr(qseries, "qpoch", lambda *a, **k: pytest.fail("qpoch called"))
        ctx = QContext(0.05)
        # the first case is fine; the second is past its mass ladder at q = 0.05
        beyond = r"\(a=2\.5, b=-0\.2, k=1\) at q=0\.05: index k beyond"
        with pytest.raises(DomainError, match=beyond):
            mass_identity_check(*zip(*MASS_CASES), ctx)
        with pytest.raises(DomainError, match=r"\(a=1\.6, b=0\.3, k=0\) at q=0\.48: q = ab"):
            mass_identity_check(1.6, 0.3, 0, QContext(0.48))


def _ref_mass_residual(a, b, k, ctx):
    # the matching identity with each closed form evaluated on its own
    q = ctx.q
    lhs = (
        (1.0 - q)
        / (1.0 - q / (a * b))
        * orthopoly.asc_mass_poisson_tq(k, a, b, ctx)
        * orthopoly.aw_mass_weight(a, (b, 0.0, 0.0), k, ctx)
        / orthopoly.aw_h0(a, b, 0.0, 0.0, ctx)
    )
    rhs = orthopoly.aw_mass_weight(a, (b, q / a, q / b), k, ctx) / orthopoly.aw_h0(
        a, b, q / a, q / b, ctx
    )
    return abs(lhs - rhs)


def _identity_stdout(target: str, rows: list, **config) -> str:
    """The JSON line ``qhaar identity <target>`` prints for these rows."""
    cfg = cli.RunConfig(**config)
    report = {
        "schema": cli.SCHEMA_VERSION,
        "command": "identity",
        "target": target,
        "config": cfg.as_dict(),
        "rows": rows,
        "passed": all(r["passed"] for r in rows),
    }
    if target == "bailey":
        report["display_form_inconsistent"] = any(r["variant_residual"] > cfg.tol for r in rows)
    return cli._to_json(report) + "\n"


class TestIdentityCommands:
    """Each ``qhaar identity`` command prints what a row-by-row evaluation
    with scalar calls gives, and asks ``qpoch`` once for all its factorials."""

    def run(self, capsys, *argv: str) -> tuple[int, str]:
        code = cli.main(["identity", *argv])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize(
        "q, tau, sigma",
        [(q, 0.4, 1.5) for q in (0.05, 0.3, 0.5, 0.9, 0.95)]
        + [(0.9, 0.3, 0.7047), (0.9, 0.3, 1.2953)],
    )
    def test_bailey_stdout(self, capsys, q: float, tau: float, sigma: float) -> None:
        ctx = QContext(q)
        rows = []
        for theta in BAILEY_THETAS:
            cons = _ref_display_residual(theta, tau, sigma, ctx, 1.0 + q ** (-2.0 * tau))
            variant = _ref_display_residual(theta, tau, sigma, ctx, 1.0 - q ** (-2.0 * tau))
            rows.append(
                {
                    "theta": theta,
                    "residual": cons,
                    "variant_residual": variant,
                    "raw_residual": _ref_raw_check(theta, tau, sigma, ctx),
                    "passed": cons <= 1e-7,
                }
            )
        argv = ("--q", repr(q), "--tau", repr(tau), "--sigma", repr(sigma))
        code, out = self.run(capsys, "bailey", *argv)
        assert out == _identity_stdout("bailey", rows, q=q, tau=tau, sigma=sigma)
        assert code == (0 if all(r["passed"] for r in rows) else 1)

    @pytest.mark.parametrize("q", (0.5, 0.95))
    def test_mass_stdout(self, capsys, q: float) -> None:
        ctx = QContext(q)
        rows = []
        for a, b, k in MASS_CASES:
            res = _ref_mass_residual(a, b, k, ctx)
            rows.append({"a": a, "b": b, "k": k, "residual": res, "passed": res <= 1e-7})
        code, out = self.run(capsys, "mass", "--q", repr(q))
        assert out == _identity_stdout("mass", rows, q=q)
        assert code == (0 if all(r["passed"] for r in rows) else 1)

    @pytest.mark.parametrize(
        "q, seed",
        [(0.3, 1), (0.5, 7041), (0.5, 99), (0.8, 12345), (0.9, 2026)]
        # seeds of one, two and three 32-bit words: the rows are numpy's draws for any seed
        + [(0.5, 0), (0.5, 2**40), (0.5, 2**64 + 1)],
    )
    def test_poisson_stdout(self, capsys, q: float, seed: int) -> None:
        ctx = QContext(q)
        rng = np.random.default_rng(seed)
        rows = []
        for kind in ["q-hermite"] * 10 + ["al-salam-chihara"] * 10:
            t = float(rng.uniform(-0.8, 0.8))
            x = float(rng.uniform(-0.99, 0.99))
            y = float(rng.uniform(-0.99, 0.99))
            if kind == "q-hermite":
                a = b = 0.0
                closed = orthopoly.cqh_poisson(t, x, y, ctx)
                series = orthopoly.cqh_poisson_series(t, x, y, ctx)
            else:
                a = float(rng.uniform(-0.95, 0.95))
                b = float(rng.uniform(-0.95, 0.95))
                closed = orthopoly.asc_poisson(t, x, y, a, b, ctx)
                series = orthopoly.asc_poisson_series(t, x, y, a, b, ctx)
            res = float(abs(series - closed) / (1.0 + abs(closed)))
            rows.append(
                {"kind": kind, "t": t, "x": x, "y": y, "a": a, "b": b, "residual": res,
                 "passed": res <= 1e-7}
            )
        code, out = self.run(capsys, "poisson", "--q", repr(q), "--seed", str(seed))
        assert out == _identity_stdout("poisson", rows, q=q, seed=seed)
        assert code == (0 if all(r["passed"] for r in rows) else 1)

    @pytest.mark.parametrize("q", (0.5, 0.9, 0.95, 0.97, 0.99))
    def test_poisson_q_hermite_rows_pass(self, capsys, q: float) -> None:
        # a q-Hermite row may fail only where rounding swamps the float series,
        # its terms summing in absolute value to over tol (1 + |value|) / (10 eps).
        # Near q = 1 the series needs far more terms than |t| alone asks for
        # (t = -0.172 at q = 0.95 needs 42, and 26 left 5.1e-5).
        ctx = QContext(q)
        code, out = self.run(capsys, "poisson", "--q", repr(q))
        rows = [r for r in json.loads(out)["rows"] if r["kind"] == "q-hermite"]
        checked = 0
        for r in rows:
            t, x, y = r["t"], r["x"], r["y"]
            h = orthopoly.cqh_all(3000, np.array([x, y]), ctx)
            k = np.arange(3001)
            poch = np.cumprod(np.r_[1.0, 1.0 - q ** k[1:]])
            sum_abs = float(np.sum(np.abs(t**k * h[:, 0] * h[:, 1] / poch)))
            closed = orthopoly.cqh_poisson(t, x, y, ctx)
            if 10.0 * np.finfo(float).eps * sum_abs <= 1e-7 * (1.0 + abs(closed)):
                assert r["passed"], r
                checked += 1
        assert checked >= (10 if q <= 0.97 else 7)

    @staticmethod
    def poisson_stop(t: float, x: float, y: float, a: float, b: float, ctx: QContext) -> int:
        """The last index the Poisson series sums: the least n it returns at
        under a term cap of n + 1, found by bisection on qseries.MAX_TERMS."""
        lo, hi = 0, qseries.MAX_TERMS - 1
        with pytest.MonkeyPatch.context() as patch:
            while lo < hi:
                mid = (lo + hi) // 2
                patch.setattr(qseries, "MAX_TERMS", mid + 1)
                try:
                    orthopoly.asc_poisson_series(t, x, y, a, b, ctx)
                except ConvergenceError:
                    lo = mid + 1
                else:
                    hi = mid
        return lo

    @pytest.mark.parametrize("q", (0.3, 0.9, 0.97))
    def test_poisson_terms_bound_the_tail(self, q: float) -> None:
        # past the index the series stops at, its absolute terms sum below TAIL_TOL
        ctx = QContext(q)
        rng = np.random.default_rng(31)
        for _ in range(40):
            t = float(rng.uniform(-0.8, 0.8))
            x, y, a, b = (float(v) for v in rng.uniform(-0.95, 0.95, 4))
            n = self.poisson_stop(t, x, y, a, b, ctx)
            p = orthopoly.asc_all(4 * n + 400, np.array([x, y]), a, b, ctx)
            k = np.arange(p.shape[0])
            poch = np.cumprod(np.r_[1.0, (1.0 - q ** k[1:]) * (1.0 - a * b * q ** k[:-1])])
            tail = np.abs(t**k * p[:, 0] * p[:, 1] / poch)[n + 1:]
            assert tail.sum() <= qseries.TAIL_TOL, (t, x, y, a, b, n)
            assert tail[0] > 0.0

    def test_poisson_terms_refuse_past_max_terms(self, monkeypatch) -> None:
        monkeypatch.setattr(qseries, "MAX_TERMS", 100)
        with pytest.raises(ConvergenceError, match="over 100 terms"):
            orthopoly.cqh_poisson_series(0.8, 0.3, -0.2, QContext(0.99))
        # t = 0 stops at the k = 0 term
        assert orthopoly.asc_poisson_series(0.0, 0.3, -0.2, 0.5, 0.5, QContext(0.9)) == 1.0
        assert self.poisson_stop(0.0, 0.3, -0.2, 0.5, 0.5, QContext(0.9)) == 0

    @pytest.mark.parametrize(
        "argv, w87_lanes",
        [
            (("bailey",), 4 * len(BAILEY_THETAS)),
            (("bailey", "--q", "0.9", "--tau", "0.3", "--sigma", "0.7047"), 4 * len(BAILEY_THETAS)),
            (("mass",), 0),
            (("mass", "--q", "0.95"), 0),
            (("poisson",), 10),
            (("poisson", "--q", "0.9", "--seed", "3"), 10),
        ],
    )
    def test_one_qpoch_call_per_command(self, capsys, monkeypatch, argv, w87_lanes: int) -> None:
        # one qpoch call, and one array w87 call holding every 8W7 series
        qpoch_calls, lanes = [], []
        real_qpoch, real_w87 = qseries.qpoch, qseries.w87

        def qpoch(*args, **kwargs):
            qpoch_calls.append(args)
            return real_qpoch(*args, **kwargs)

        def w87(*args, **kwargs):
            lanes.append(np.broadcast(*args[:6], args[7]).size)
            return real_w87(*args, **kwargs)

        monkeypatch.setattr(qseries, "qpoch", qpoch)
        monkeypatch.setattr(qseries, "w87", w87)
        code, out = self.run(capsys, *argv)
        assert code in (0, 1) and out
        assert len(qpoch_calls) == 1
        assert lanes == ([w87_lanes] if w87_lanes else [])

    @pytest.mark.parametrize("q", ["0.99", "0.995"])
    def test_mass_near_one_refused(self, capsys, q: str) -> None:
        # products of factorials under- (0.99) or overflow (0.995)
        code = cli.main(["identity", "mass", "--q", q])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "non-convergence" in captured.err

    @pytest.mark.parametrize("q", (0.05, 0.3))
    def test_mass_k_capped_by_the_ladder(self, capsys, q: float) -> None:
        # at q <= 0.4, a = 2.5 has one mass point, so its case drops to k = 0
        code, out = self.run(capsys, "mass", "--q", repr(q))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["a"], r["k"]) for r in rows] == [(a, 0) for a, _, _ in MASS_CASES]
        cases = [(a, b, 0) for a, b, _ in MASS_CASES]
        ctx = QContext(q)
        assert [r["residual"] for r in rows] == [_ref_mass_residual(*c, ctx) for c in cases]

    def test_mass_case_named_in_domain_error(self) -> None:
        with pytest.raises(DomainError, match=r"mass case \(a=2.5, b=-0.2, k=1\) at q=0.05"):
            mass_identity_check(2.5, -0.2, 1, QContext(0.05))


class TestSupport:
    def test_spectrum_stays_on_support(self, ctx: QContext) -> None:
        assert support_check(TAU, 1.5, ctx, size=200) < 1e-7
        assert support_check(TAU, 0.6, ctx, size=200) < 1e-7

    def test_smaller_truncation_is_looser(self, ctx: QContext) -> None:
        assert support_check(TAU, 1.5, ctx, size=80) < 1e-4

    def test_builds_no_dense_generators(self, monkeypatch, ctx: QContext) -> None:
        # reference: the element densified from build_rep's view at phi = 0,
        # in the real gauge diag(i^n)* M diag(i^n)
        M = element(build_rep(ctx, 0.0, 120), "rho_tau_sigma", SphericalParams(TAU, 1.5))
        n = np.arange(121)
        M = np.array([1.0, 1j, -1.0, -1j])[(n[None, :] - n[:, None]) % 4] * M
        assert not np.any(M.imag)
        M = M.real
        masses = aw_measure(thm6_params(TAU, 1.5, ctx)).masses
        want = max(
            min([max(abs(x) - 1.0, 0.0)] + [abs(x - xm) for xm, _ in masses])
            for x in np.linalg.eigvalsh(M)
        )
        calls = []
        for module in (qsu2rep, haarverify):
            for fn_name in ("build_rep", "element"):
                monkeypatch.setattr(
                    module, fn_name, lambda *a, n=fn_name: calls.append(n), raising=False
                )
        assert support_check(TAU, 1.5, ctx, size=120) == want
        assert calls == []

    def test_masses_without_quadrature_rule(self, capsys, monkeypatch) -> None:
        # support_check and spectrum rho-sigma read the mass points alone
        want = support_check(0.3, 0.704744424783136, QContext(0.9), size=160)

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature rule built")

        monkeypatch.setattr(orthopoly, "aw_measure", refuse)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        assert support_check(0.3, 0.704744424783136, QContext(0.9), size=160) == want
        argv = ["spectrum", "rho-sigma", "--q", "0.9", "--tau", "0.3", "--sigma", "0.7047"]
        assert cli.main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["mass_points"]) == 1

    def test_size_zero_rejected(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            support_check(TAU, 1.5, ctx, size=0)

    def test_distances_are_the_scalar_ones(self, ctx: QContext) -> None:
        masses = aw_masses(thm6_params(TAU, 1.5, ctx))
        assert len(masses) == 2
        rng = np.random.default_rng(1114)
        xs = np.concatenate((
            rng.uniform(-1.5, 1.5, 200),
            [-1.0, 1.0, 0.0, -0.0, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0)],
            [xm for xm, _ in masses],
        ))
        want = [min([max(abs(x) - 1.0, 0.0)] + [abs(x - xm) for xm, _ in masses]) for x in xs.tolist()]
        got = haarverify._support_distances(xs, masses)
        assert [float.hex(v) for v in got.tolist()] == [float.hex(v) for v in want]
        assert haarverify._support_distances(xs, ()).tolist() == [max(abs(x) - 1.0, 0.0) for x in xs]


class TestSigmaLimit:
    def test_errors_decrease_geometrically(self, ctx: QContext) -> None:
        errs = sigma_limit_check([0.0, 1.0], TAU, ctx)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4

    @pytest.mark.parametrize("q", [0.95, 0.99])
    def test_sizes_itself_near_one(self, q: float) -> None:
        errs = sigma_limit_check([0.0, 0.0, 1.0], TAU, QContext(q))
        assert all(type(e) is float for e in errs)
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("q, tau", [(0.5, TAU), (0.95, TAU), (0.99, TAU), (0.9, 0.3)])
    def test_finite_at_the_kernel_draws(self, q: float, tau: float) -> None:
        # the (q, tau) of TestIntermediate's grid points at sigma = 1.5 and 0.7047
        errs = sigma_limit_check((0.0, 0.0, 1.0), tau, QContext(q))
        assert all(type(e) is float and math.isfinite(e) for e in errs), errs

    def test_needs_coefficients(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            sigma_limit_check(lambda x: x, TAU, ctx)


class TestDensityBridge:
    def test_diagonal_kernel_times_weight(self) -> None:
        # (1-q^2)(q^2;q^2)_inf P_{q^2}(x,x) w(x|q^2) = 4 (1 - x^2)
        for q in (0.3, 0.5, 0.8):
            ctx2 = QContext(q).squared()
            Q = ctx2.q
            c = (1.0 - Q) * qpoch(Q, ctx2)
            for x in np.linspace(-0.99, 0.99, 21):
                lhs = c * cqh_poisson(Q, float(x), float(x), ctx2) * cqh_weight(float(x), ctx2)
                assert lhs == pytest.approx(4.0 * (1.0 - x * x), rel=1e-9)


class TestGammaMeasure:
    def test_monomial_values(self, ctx: QContext) -> None:
        # int_0^1 x^m d_{q^2}x = (1 - q^2) / (1 - q^{2(m+1)})
        Q = ctx.q**2
        for m in range(5):
            want = (1.0 - Q) / (1.0 - Q ** (m + 1))
            got = gamma_measure([0.0] * m + [1.0], ctx)
            assert got == pytest.approx(want, rel=1e-12)


class TestJacksonExactMoments:
    """The Jackson measures against their moments in exact arithmetic, q from
    1e-9 to 0.995, on the float q and q^{2 tau} the measures are given."""

    @pytest.mark.parametrize("q", (1e-9, 1e-6, 1e-5, 3e-5, 1e-3) + BIT_Q)
    def test_relative_error(self, q: float) -> None:
        # gamma: int_0^1 x^k d_Q x = (1 - Q)/(1 - Q^{k+1}); thm5 on [-1, u]:
        # (1 - Q)(u^{k+1} + (-1)^k)/((1 - Q^{k+1})(1 + u)), Q = q^2, u = q^{2 tau}
        ctx, Q = QContext(q), Fraction(q) ** 2
        for k in range(13):
            p = [0.0] * k + [1.0]
            want = (1 - Q) / (1 - Q ** (k + 1))
            assert abs(Fraction(gamma_measure(p, ctx)) - want) <= Fraction(1e-14) * want, k
            for tau in BIT_TAU:
                u = Fraction(q ** (2.0 * tau))
                want = (1 - Q) * (u ** (k + 1) + (-1) ** k) / ((1 - Q ** (k + 1)) * (1 + u))
                got = Fraction(thm5_measure(p, tau, ctx))
                assert abs(got - want) <= Fraction(1e-14) * abs(want), (k, tau)

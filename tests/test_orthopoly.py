"""Polynomial families, Poisson kernels, and the Askey-Wilson measure."""
from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qhaar import (
    AWParams,
    ConvergenceError,
    DomainError,
    MomentFunctional,
    QContext,
    QHaarError,
    asc,
    asc_all,
    asc_orthonormal,
    asc_poisson,
    aw_h0,
    aw_integrate,
    aw_masses,
    aw_measure,
    cqh,
    cqh_all,
    cqh_poisson,
    cqh_weight,
    mass_identity_check,
    moment_apply,
    q_charlier,
    qpoch,
    thm6_params,
)
from qhaar import orthopoly, qseries
from qhaar.orthopoly import (
    _mass_ladder,
    asc_mass_poisson_tq,
    asc_poisson_series,
    aw_mass_weight,
    aw_theta_weight,
    cqh_poisson_series,
)

mp.mp.dps = 50


def reference_poisson_terms(t: float, a: float, b: float, ctx: QContext) -> int:
    """The former term count of the Poisson series, kept as a reference: the
    least n whose tail bound m_n rho_n / (1 - rho_n) is below TAIL_TOL (see
    ``asc_poisson_series``), walked in a loop of its own."""
    q, log_tol, at = ctx.q, math.log(qseries.TAIL_TOL), abs(t)
    s, ab = abs(a) + abs(b), abs(a * b)
    r = 2.0 + s  # P_1 / P_0
    log_m, qn = 0.0, 1.0  # log m_n and q^n
    for n in range(qseries.MAX_TERMS):
        qn1 = qn * q
        c = (1.0 - qn1) * (1.0 - ab * qn)
        rho = at * r * r / c
        if rho == 0.0:
            return n
        log_m_next = log_m + math.log(rho)
        if log_m_next < log_tol and rho < 1.0 and log_m_next - math.log1p(-rho) < log_tol:
            return n
        log_m, qn = log_m_next, qn1
        r = 2.0 + s * qn - c / r
    raise ConvergenceError(
        f"Poisson series at t={t!r}, a={a!r}, b={b!r} needs over {qseries.MAX_TERMS} terms at q={q!r}"
    )


def reference_poisson_series(t, x, y, a, b, ctx: QContext, n_terms: int) -> float:
    """The former Poisson series, kept as a reference: terms 0..n_terms of
    sum_k t^k p_k(x) p_k(y) / (q, ab; q)_k, with q^k carried as q^k."""
    q = ctx.q
    x2, y2, s, ab = 2.0 * float(x), 2.0 * float(y), a + b, a * b
    u_prev, u = 1.0, x2 - s
    v_prev, v = 1.0, y2 - s
    total, tk, poch, qk = 1.0, 1.0, 1.0, q
    for _ in range(n_terms):
        tk *= t
        c = (1.0 - ab * qk / q) * (1.0 - qk)
        poch *= c
        total += tk * u * v / poch
        sq = s * qk
        u_prev, u = u, (x2 - sq) * u - c * u_prev
        v_prev, v = v, (y2 - sq) * v - c * v_prev
        qk *= q
    return total


class TestCqh:
    def test_recurrence_seeds(self, ctx: QContext) -> None:
        assert cqh(0, 0.3, ctx) == 1.0
        assert cqh(1, 0.3, ctx) == pytest.approx(0.6)

    def test_degree_two(self, ctx: QContext) -> None:
        # H_2 = 4x^2 - (1 - q)
        x = 0.37
        assert cqh(2, x, ctx) == pytest.approx(4 * x * x - (1 - ctx.q), rel=1e-14)

    def test_all_matches_scalar(self, ctx: QContext) -> None:
        vals = cqh_all(6, 0.2, ctx)
        for n in range(7):
            assert vals[n] == pytest.approx(cqh(n, 0.2, ctx), rel=1e-14)

    def test_gram_under_weight(self, ctx: QContext) -> None:
        # <H_n, H_m> over [0, pi] -> delta * 2 pi (q;q)_n / (q;q)_inf
        q = ctx.q
        qpinf = qpoch(q, ctx)
        for n in range(11):
            for m in range(n, 11):
                val, err = quad(
                    lambda th: cqh(n, math.cos(th), ctx)
                    * cqh(m, math.cos(th), ctx)
                    * cqh_weight(math.cos(th), ctx),
                    0.0,
                    math.pi,
                    limit=200,
                )
                want = 2 * math.pi * qpoch(q, ctx, n) / qpinf if n == m else 0.0
                assert val == pytest.approx(want, rel=1e-8, abs=1e-8)


class TestCqhPoisson:
    def test_t_zero(self, ctx: QContext) -> None:
        assert cqh_poisson(0.0, 0.3, -0.7, ctx) == pytest.approx(1.0)

    def test_rejects_t_outside(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            cqh_poisson(1.0, 0.2, 0.2, ctx)

    def test_diagonal_weight_product(self, ctx2: QContext) -> None:
        # w(x|q^2) P_{q^2}(x, x|q^2) = 4(1-x^2) / ((1-q^2)(q^2;q^2)_inf), q=1/2
        x = 0.3
        Q = ctx2.q
        got = cqh_weight(x, ctx2) * cqh_poisson(Q, x, x, ctx2)
        want = 4 * (1 - x * x) / ((1 - Q) * qpoch(Q, ctx2))
        assert got == pytest.approx(want, rel=1e-12)

    def test_series_vs_closed(self, ctx: QContext) -> None:
        t, x, y = 0.25, 0.2, -0.4
        got = cqh_poisson_series(t, x, y, ctx)
        assert got == pytest.approx(cqh_poisson(t, x, y, ctx), rel=1e-10)

    def test_series_is_the_q_hermite_loop(self) -> None:
        # the q-Hermite series runs the Al-Salam-Chihara loop at a = b = 0;
        # the former loop of its own, kept here and summed to the former term
        # count, gives every bit
        def hermite_loop(t, x, y, ctx, n_terms):
            hx, hy = cqh_all(n_terms, np.array([x, y]), ctx).T
            total, tn, poch, qn = 0.0, 1.0, 1.0, 1.0
            for n in range(n_terms + 1):
                if n > 0:
                    qn *= ctx.q
                    poch *= 1.0 - qn
                    tn *= t
                total += tn * hx[n] * hy[n] / poch
            return total

        rng = np.random.default_rng(15)
        for _ in range(500):
            ctx = QContext(float(rng.uniform(0.01, 0.995)))
            t, x, y = rng.uniform(-0.9, 0.9), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            n = reference_poisson_terms(t, 0.0, 0.0, ctx)
            got = cqh_poisson_series(t, x, y, ctx)
            assert got.hex() == hermite_loop(t, x, y, ctx, n).hex(), (ctx.q, t, x, y, n)

    @given(
        t=st.floats(-0.6, 0.6),
        x=st.floats(-0.95, 0.95),
        y=st.floats(-0.95, 0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_series_closed_agreement_property(self, t: float, x: float, y: float) -> None:
        ctx = QContext(0.5)
        got = cqh_poisson_series(t, x, y, ctx)
        assert got == pytest.approx(cqh_poisson(t, x, y, ctx), rel=1e-9, abs=1e-9)


class TestQCharlier:
    def test_degree_zero(self, ctx2: QContext) -> None:
        assert q_charlier(0, 1.7, 0.3, ctx2) == 1.0

    def test_value_at_origin(self, ctx: QContext, ctx2: QContext) -> None:
        # c_n(0; a; q) = (-q/a; q)_n at n=3, a = q^{2 tau}, base q^2
        a = ctx.q ** 0.8
        got = q_charlier(3, 0.0, a, ctx2)
        assert got == pytest.approx(qpoch(-ctx2.q / a, ctx2, 3), rel=1e-13)

    def test_l_orthogonality_closed_norms(self, ctx: QContext, ctx2: QContext) -> None:
        # L(c_k c_l) = delta_{kl} q^{-2k} (q^2, -q^{2-2tau}; q^2)_k (-q^{2tau}; q^2)_inf
        q, tau = ctx.q, 0.4
        a = q ** (2 * tau)
        L = MomentFunctional("L", ctx, tau)
        for k in range(7):
            for l in range(k + 1):
                got = moment_apply(
                    L,
                    lambda x, k=k: q_charlier(k, x, a, ctx2),
                    lambda x, l=l: q_charlier(l, x, a, ctx2),
                )
                if k == l:
                    want = (
                        q ** (-2 * k)
                        * qpoch(q * q, ctx2, k)
                        * qpoch(-(q ** (2 - 2 * tau)), ctx2, k)
                        * qpoch(-(q ** (2 * tau)), ctx2)
                    )
                    assert got == pytest.approx(want, rel=1e-12)
                else:
                    assert abs(got) < 1e-12

    def test_against_mpmath_series(self, ctx2: QContext) -> None:
        Q = mp.mpf(0.25)
        a = mp.mpf(0.5) ** mp.mpf("0.8")
        for n in (1, 5, 10, 15):
            for xm in (0, 7, 20, 40):
                x = mp.mpf(4) ** xm
                z = -(Q ** (n + 1)) / a
                tot, term = mp.mpf(0), mp.mpf(1)
                for j in range(n + 1):
                    tot += term
                    term *= (1 - Q ** (j - n)) * (1 - x * Q**j) / (1 - Q ** (j + 1)) * z
                got = q_charlier(n, float(x), float(a), ctx2)
                assert got == pytest.approx(float(tot), rel=1e-12)


class TestMomentFunctional:
    def test_requires_valid_kind(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            MomentFunctional("X", ctx)
        with pytest.raises(DomainError):
            MomentFunctional("L", ctx)  # tau missing

    def test_l_of_one_matches_direct_sum(self, ctx: QContext) -> None:
        q, tau = ctx.q, 0.4
        L = MomentFunctional("L", ctx, tau)
        direct = sum(
            q ** (2 * n * tau) * q ** (n * (n - 1)) / qpoch(q * q, ctx.squared(), n)
            for n in range(60)
        )
        assert moment_apply(L, lambda x: 1.0) == pytest.approx(direct, rel=1e-13)

    def test_m_biorthogonality(self, ctx: QContext, ctx2: QContext) -> None:
        # M(c_1(.; q^{2 tau}) c_2(.; q^{-2 tau})) = 0
        q, tau = ctx.q, 0.4
        M = MomentFunctional("M", ctx)
        got = moment_apply(
            M,
            lambda x: q_charlier(1, x, q ** (2 * tau), ctx2),
            lambda x: q_charlier(2, x, q ** (-2 * tau), ctx2),
        )
        assert abs(got) < 1e-10

    def test_division_by_node_closed_form(self, ctx: QContext, ctx2: QContext) -> None:
        # L(c_k(x)/x) = (-q^{2 tau + 2}; q^2)_inf (q^2; q^2)_k
        q, tau = ctx.q, 0.4
        a = q ** (2 * tau)
        L = MomentFunctional("L", ctx, tau)
        for k in range(5):
            got = moment_apply(L, lambda x, k=k: q_charlier(k, x, a, ctx2) / x)
            want = qpoch(-(q ** (2 * tau + 2)), ctx2) * qpoch(q * q, ctx2, k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_unsplit_large_product_overflows_loudly(self, ctx: QContext, ctx2: QContext) -> None:
        # squaring degree-15 values inside a single callable leaves double
        # range before the weight can rebalance; the split form works
        q, tau = ctx.q, 0.4
        a = q ** (2 * tau)
        L = MomentFunctional("L", ctx, tau)
        with pytest.raises(ConvergenceError):
            moment_apply(L, lambda x: q_charlier(15, x, a, ctx2) ** 2)
        split = moment_apply(
            L,
            lambda x: q_charlier(15, x, a, ctx2),
            lambda x: q_charlier(15, x, a, ctx2),
        )
        assert math.isfinite(split) and split > 0


# malformed coefficients, refused with DomainError by the one coefficient rule
MALFORMED_COEFFS = ("01", [[0, 1]], [], [0, 1j], None)
# valid spellings of coefficients: ints, floats, bools, an array and a scalar
VALID_COEFFS = ((1, 2, 3), [0.5, -1.0, 0.25], np.array([0.0, 1.0]), (True, False, True), 2.0, [0, 0, 1, 0])


def former_polynomial(p):
    """p as the callable the former reading made of it, with np.asarray(p, dtype=float)."""
    coeffs = np.asarray(p, dtype=float)
    return lambda x: float(np.polynomial.polynomial.polyval(x, coeffs))


class TestMomentApplyCoefficients:
    """moment_apply reads coefficients by the rule of both routes and applies a
    callable as it is; valid coefficients give the bits of the former reading."""

    @pytest.mark.parametrize("bad", MALFORMED_COEFFS, ids=repr)
    def test_malformed_refused(self, ctx: QContext, bad) -> None:
        for functional in (MomentFunctional("L", ctx, 0.4), MomentFunctional("M", ctx)):
            with pytest.raises(DomainError):
                moment_apply(functional, bad)
            if bad is not None:  # p2 = None is the one-factor call
                with pytest.raises(DomainError):
                    moment_apply(functional, [0.0, 1.0], bad)

    @pytest.mark.parametrize("p", VALID_COEFFS, ids=repr)
    def test_valid_coefficients_give_the_former_bits(self, ctx: QContext, p) -> None:
        for functional in (MomentFunctional("L", ctx, 0.4), MomentFunctional("M", ctx)):
            want = moment_apply(functional, former_polynomial(p))
            assert moment_apply(functional, p).hex() == want.hex()
            want = moment_apply(functional, former_polynomial(p), former_polynomial(p))
            assert moment_apply(functional, p, p).hex() == want.hex()
            assert moment_apply(functional, p, math.cos) == moment_apply(
                functional, former_polynomial(p), math.cos
            )


class TestAsc:
    def test_ttr_seeds(self, ctx: QContext) -> None:
        a, b = 0.3, -0.2
        assert asc(0, 0.4, a, b, ctx) == 1.0
        assert asc(1, 0.4, a, b, ctx) == pytest.approx(2 * 0.4 - (a + b), rel=1e-14)

    def test_parameter_symmetry(self, ctx: QContext, rng: np.random.Generator) -> None:
        for _ in range(5):
            x, a, b = rng.uniform(-1, 1), rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
            assert asc(4, x, a, b, ctx) == pytest.approx(asc(4, x, b, a, ctx), rel=1e-11, abs=1e-11)

    def test_series_route_vs_ttr(self, ctx: QContext, rng: np.random.Generator) -> None:
        # explicit TTR: p_{n+1} = 2x p_n - (a+b) q^n p_n - (1 - ab q^{n-1})(1 - q^n) p_{n-1}
        q = ctx.q
        for _ in range(6):
            x = rng.uniform(-1, 1)
            a, b = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
            pm, p = 1.0, 2 * x - (a + b)
            for n in range(1, 12):
                pm, p = p, (2 * x - (a + b) * q**n) * p - (1 - a * b * q ** (n - 1)) * (1 - q**n) * pm
            assert asc(12, x, a, b, ctx) == pytest.approx(p, rel=1e-9, abs=1e-9)

    def test_against_mpmath(self, ctx2: QContext) -> None:
        # the defining 3phi2 at base 1/4: its terms reach ~1e33 against an
        # O(1) result at n=12, so the reference needs well beyond double precision
        for n in (3, 8, 12):
            for x in (0.6, -0.95, 1.2009763571708807):
                got = asc(n, x, 0.23325824788420185, -1.8660659830736148, ctx2)
                assert got == pytest.approx(
                    mp_asc(n, x, 0.23325824788420185, -1.8660659830736148, ctx2.q), rel=1e-11
                )

    @pytest.mark.parametrize("x", [0.64, -0.3, 0.97])
    @pytest.mark.parametrize("a, b", [(0.8, -0.82), (0.5, 0.3), (-0.7, 0.2), (0.1, 0.0)])
    def test_near_one(self, x: float, a: float, b: float) -> None:
        # at q = 0.9 every degree through 13 holds to 1e-13 of max(1, |p_n|);
        # at (10, 0.64, 0.8, -0.82) the terminating series is off by 1e-8
        ctx = QContext(0.9)
        for n in range(14):
            want = mp_asc(n, x, a, b, ctx.q)
            assert abs(asc(n, x, a, b, ctx) - want) <= 1e-13 * max(1.0, abs(want)), n

    def test_orthonormal_ttr_both_branch_parameterizations(self, ctx: QContext, ctx2: QContext) -> None:
        # 2x h_n = a_n h_{n+1} + b_n h_n + a_{n-1} h_{n-1} with
        #   a_m = sqrt((1-q^{2m+2})(1+q^{2m+2-(+)2tau})), b_m = q^{2m+1-(+)tau}(q^{+(-)sigma}-q^{-(+)sigma})
        q, tau, sigma = ctx.q, 0.4, 1.5
        cases = [
            (q**tau, q**sigma,
             lambda m: math.sqrt((1 - q ** (2 * m + 2)) * (1 + q ** (2 * m + 2 - 2 * tau))),
             lambda m: q ** (2 * m + 1 - tau) * (q**sigma - q**-sigma)),
            (q**-tau, q**-sigma,
             lambda m: math.sqrt((1 - q ** (2 * m + 2)) * (1 + q ** (2 * m + 2 + 2 * tau))),
             lambda m: q ** (2 * m + 1 + tau) * (q**-sigma - q**sigma)),
        ]
        rng = np.random.default_rng(5)
        for s_par, t_par, am, bm in cases:
            for x in rng.uniform(-1, 1, 20):
                h = asc_orthonormal(11, float(x), s_par, t_par, ctx2)
                for n in range(1, 10):
                    resid = 2 * x * h[n] - (am(n) * h[n + 1] + bm(n) * h[n] + am(n - 1) * h[n - 1])
                    assert abs(resid) < 1e-10


def mp_asc(n: int, x: float, a: float, b: float, q: float) -> float:
    """p_n(x; a, b | q) by its defining terminating 3phi2, in 140-digit arithmetic:

        a^{-n} (ab;q)_n 3phi2(q^{-n}, a e^{i theta}, a e^{-i theta}; ab, 0; q, q).
    """
    with mp.workdps(140):
        Q, a, b = mp.mpf(q), mp.mpf(a), mp.mpf(b)
        z = x + mp.sqrt(mp.mpf(x) ** 2 - 1) if abs(x) > 1 else mp.mpc(x, mp.sqrt(1 - mp.mpf(x) ** 2))
        tot, term = mp.mpc(0), mp.mpc(1)
        for j in range(n + 1):
            tot += term
            term *= (1 - Q ** (j - n)) * (1 - a * z * Q**j) * (1 - (a / z) * Q**j)
            term /= (1 - Q ** (j + 1)) * (1 - a * b * Q**j)
            term *= Q
        pre = mp.mpf(1)
        for i in range(n):
            pre *= 1 - a * b * Q**i
        return float(tot.real * pre / a**n)


class TestAwMeasure:
    def test_pairwise_product_guard(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            AWParams(0.8, 1.3, 0.0, 0.0, ctx)  # ab = 1.04
        # signed product below one is admissible even with |a| > 1
        AWParams(-2.0, 0.6, 0.0, 0.0, ctx)

    def test_no_masses_when_params_small(self, ctx: QContext) -> None:
        spec = aw_measure(AWParams(0.5, -0.3, 0.2, 0.1, ctx))
        assert spec.masses == ()

    def test_single_mass_enumeration(self, ctx: QContext) -> None:
        spec = aw_measure(AWParams(1.5, 0.0, 0.0, 0.0, ctx))
        assert len(spec.masses) == 1
        assert spec.masses[0][0] == pytest.approx((1.5 + 1 / 1.5) / 2, rel=1e-14)

    def test_mass_boundary_excluded(self, ctx: QContext) -> None:
        # |e q^k| = 1 exactly is excluded: e = 1/q leaves only the k=0 mass
        spec = aw_measure(AWParams(1 / ctx.q, 0.0, 0.0, 0.0, ctx))
        assert len(spec.masses) == 1

    def test_mass_ladder(self) -> None:
        # k runs while |e| q^k > 1 + MASS_EDGE_TOL, whatever the sign of e
        assert _mass_ladder(2.5, 0.5) == range(2)
        assert _mass_ladder(-2.5, 0.5) == range(2)
        assert _mass_ladder(0.9, 0.5) == range(0)
        assert _mass_ladder(1.0 + 0.5 * orthopoly.MASS_EDGE_TOL, 0.5) == range(0)
        assert _mass_ladder(1.0 + 2.0 * orthopoly.MASS_EDGE_TOL, 0.5) == range(1)
        assert _mass_ladder(2.0, 0.5) == range(1)

    def test_mass_weights_take_the_ladder_k(self) -> None:
        # aw_mass_weight and asc_mass_poisson_tq take exactly the k of _mass_ladder
        for q in (0.25, 0.5):
            c = QContext(q)
            for e in (2.5, -2.5, 20.0, 1 / q, 1.0 + 2.0 * orthopoly.MASS_EDGE_TOL, 0.9):
                for k in range(-1, len(_mass_ladder(e, q)) + 2):
                    for call in (
                        lambda: aw_mass_weight(e, (0.03, 0.0, 0.0), k, c),
                        lambda: asc_mass_poisson_tq(k, e, 0.03, c),
                    ):
                        if k in _mass_ladder(e, q):
                            assert math.isfinite(call()), (e, k, q)
                        else:
                            with pytest.raises(DomainError, match="off the mass ladder"):
                                call()

    def test_integrate_reads_coefficients_by_the_one_rule(self, ctx: QContext) -> None:
        # malformed coefficients and callables are refused; valid ones give the
        # bits of the former reading, np.asarray(f, dtype=float)
        spec = aw_measure(AWParams(1.5, 0.2, 0.0, 0.0, ctx))
        assert spec.masses
        for bad in MALFORMED_COEFFS + (math.cos,):
            with pytest.raises(DomainError):
                aw_integrate(spec, bad)
        polyval = np.polynomial.polynomial.polyval
        nodes = np.cos(spec.theta_nodes)
        points = np.array([x for x, _ in spec.masses])
        for p in VALID_COEFFS:
            c = np.asarray(p, dtype=float)
            cont = float(np.dot(spec.theta_weights, polyval(nodes, c)))
            want = cont + sum(w * float(v) for (_, w), v in zip(spec.masses, polyval(points, c)))
            assert aw_integrate(spec, p).hex() == want.hex(), p

    def test_total_mass_normalized_four_params(self, ctx2: QContext) -> None:
        q, tau, sigma = 0.5, 0.4, 0.6
        spec = aw_measure(
            AWParams(
                -(q ** (sigma + tau + 1)),
                -(q ** (1 - sigma - tau)),
                q ** (sigma - tau + 1),
                q ** (1 - sigma + tau),
                ctx2,
            )
        )
        assert spec.masses == ()
        assert aw_integrate(spec, (1.0,)) == pytest.approx(1.0, abs=1e-9)

    def test_total_mass_with_masses(self, ctx2: QContext) -> None:
        q, tau, sigma = 0.5, 0.4, 1.5
        spec = aw_measure(
            AWParams(
                -(q ** (sigma + tau + 1)),
                -(q ** (1 - sigma - tau)),
                q ** (sigma - tau + 1),
                q ** (1 - sigma + tau),
                ctx2,
            )
        )
        assert len(spec.masses) == 2
        assert aw_integrate(spec, (1.0,)) == pytest.approx(1.0, abs=1e-9)

    def test_h0_against_mpmath(self, ctx: QContext) -> None:
        a, b, c, d = 0.4, -0.3, 0.25, 0.1
        q = mp.mpf(0.5)
        num = mp.qp(a * b * c * d, q)
        den = mp.qp(q, q)
        for u, v in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
            den *= mp.qp(u * v, q)
        assert aw_h0(a, b, c, d, ctx) == pytest.approx(float(num / den), rel=1e-11)

    def test_needs_coefficients(self, ctx2: QContext) -> None:
        spec = aw_measure(AWParams(0.0, 0.0, 0.0, 0.0, ctx2))
        with pytest.raises(DomainError):
            aw_integrate(spec, lambda x: x * x)


def reference_measure(params: AWParams):
    """aw_measure's doubling loop, written out: numpy leggauss at every level."""
    a, b, c, d = params.as_tuple()
    h0 = aw_h0(a, b, c, d, params.ctx)
    masses = reference_masses(params)
    mass_sum = sum(w for _, w in masses)
    n, prev = 64, None
    while True:
        t, wt = np.polynomial.legendre.leggauss(n)
        theta = 0.5 * math.pi * (t + 1.0)
        wvals = aw_theta_weight(theta, a, b, c, d, params.ctx)
        weights = 0.5 * math.pi * wt * wvals / (2.0 * math.pi * h0)
        total = float(np.sum(weights)) + mass_sum
        if prev is not None and abs(total - prev) <= 1e-10:
            return theta, weights, masses, total
        prev = total
        n *= 2


def reference_masses(params: AWParams) -> tuple:
    """Each mass point and weight from its own scalar closed-form calls."""
    q = params.ctx.q
    vals = params.as_tuple()
    h0 = aw_h0(*vals, params.ctx)
    return tuple(
        (
            0.5 * (e * q**k + 1.0 / (e * q**k)),
            aw_mass_weight(e, vals[:i] + vals[i + 1 :], k, params.ctx) / h0,
        )
        for i, e in enumerate(vals)
        for k in _mass_ladder(e, q)
    )


def reference_integrate(theta, weights, masses, coeffs) -> float:
    """Node-by-node evaluation of a coefficient sequence against a measure."""
    fn = lambda x: float(np.polynomial.polynomial.polyval(x, coeffs))
    fx = np.array([fn(float(v)) for v in np.cos(theta)])
    return float(np.dot(weights, fx)) + sum(w * fn(x) for x, w in masses)


class TestAwMeasureCache:
    @pytest.mark.parametrize("sigma", [0.3, 1.5], ids=["no-mass", "masses"])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_matches_uncached_reference_bitwise(self, q: float, sigma: float) -> None:
        params = thm6_params(0.4, sigma, QContext(q))
        theta, weights, masses, total = reference_measure(params)
        assert (len(masses) > 0) == (sigma == 1.5)
        spec = aw_measure(params)
        assert spec.theta_nodes.tobytes() == theta.tobytes()
        assert spec.theta_weights.tobytes() == weights.tobytes()
        assert spec.masses == masses
        assert spec.total_mass == total
        for k in range(13):
            coeffs = (0.0,) * k + (1.0,)
            got = aw_integrate(spec, coeffs)
            assert got.hex() == reference_integrate(theta, weights, masses, coeffs).hex()


class TestAwMasses:
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.97])
    def test_equal_to_aw_measure_masses(self, q: float) -> None:
        ctx = QContext(q)
        # sigma = 0.3 has no masses; the last two draws sit 5e-4 from a mass
        # threshold at q = 0.9, tau = 0.3
        draws = [
            (0.4, 0.3), (0.4, 1.5), (1.2, 2.5), (0.3, 0.704744424783136), (0.3, 1.295253202411172)
        ]
        counts = []
        for tau, sigma in draws:
            params = thm6_params(tau, sigma, ctx)
            got = aw_masses(params)
            counts.append(len(got))
            for want in (aw_measure(params).masses, reference_masses(params)):
                assert [(x.hex(), w.hex()) for x, w in got] == [(x.hex(), w.hex()) for x, w in want]
        assert counts[0] == 0 and max(counts) > 0

    def test_builds_no_quadrature_rule(self, monkeypatch) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature rule built")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        monkeypatch.setattr(orthopoly, "aw_theta_weight", refuse)
        masses = aw_masses(thm6_params(0.3, 0.704744424783136, QContext(0.9)))
        assert len(masses) == 1

    def test_no_factorials_without_masses(self, ctx2: QContext, monkeypatch) -> None:
        monkeypatch.setattr(qseries, "qpoch", lambda *a, **k: pytest.fail("qpoch called"))
        assert aw_masses(AWParams(0.5, -0.3, 0.2, 0.1, ctx2)) == ()


class TestAwThetaWeight:
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.97])
    def test_scalar_equals_array_element(self, q: float, rng: np.random.Generator) -> None:
        ctx = QContext(q)
        theta = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0.0, math.pi, 500)])
        for params in ((0.5, -0.3, 0.2, 0.1), (1.6, 0.3, 0.0, 0.0), (-0.95, 0.9, 0.4, -0.2)):
            grid = aw_theta_weight(theta, *params, ctx)
            got = [aw_theta_weight(t, *params, ctx) for t in theta.tolist()]
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in grid.tolist()]


class TestAscPoisson:
    def test_t_zero(self, ctx2: QContext) -> None:
        assert asc_poisson(0.0, 0.3, -0.1, 0.4, -0.2, ctx2) == pytest.approx(1.0)

    def test_series_vs_closed_on_continuum(self, ctx2: QContext) -> None:
        q, tau, sigma = 0.5, 0.4, 0.6
        a, b = q ** (1 + sigma - tau), -(q ** (1 - sigma - tau))
        t = q * q
        got = asc_poisson_series(t, 0.1, 0.1, a, b, ctx2)
        assert got == pytest.approx(asc_poisson(t, 0.1, 0.1, a, b, ctx2), rel=1e-9)

    def test_mass_point_terminating_vs_series(self, ctx2: QContext) -> None:
        # radius a^2 q^{2k} = 2.56 > t = q; direct series is the oracle
        Q = ctx2.q
        a, b, k = 1.6, 0.3, 0
        x0 = (a + 1 / a) / 2
        pj = asc_all(120, x0, a, b, ctx2)
        tot, tk, poch = 0.0, 1.0, 1.0
        for j in range(120):
            if j > 0:
                tk *= Q
                poch *= (1 - Q**j) * (1 - a * b * Q ** (j - 1))
            tot += tk * pj[j] ** 2 / poch
        assert asc_mass_poisson_tq(k, a, b, ctx2) == pytest.approx(tot, rel=1e-9)
        assert asc_poisson(Q, x0, x0, a, b, ctx2) == pytest.approx(tot, rel=1e-9)

    def test_rejects_outside_both_regimes(self, ctx2: QContext) -> None:
        with pytest.raises(DomainError):
            asc_poisson(1.1, 0.2, 0.2, 0.4, 0.2, ctx2)
        with pytest.raises(DomainError):
            # x off the continuum and not a mass point
            asc_poisson(0.2, 1.7, 1.7, 0.4, 0.2, ctx2)

    @given(
        t=st.floats(-0.5, 0.5),
        x=st.floats(-0.9, 0.9),
        y=st.floats(-0.9, 0.9),
        a=st.floats(0.05, 0.7),
        b=st.floats(0.05, 0.7),
        sa=st.sampled_from((-1.0, 1.0)),
        sb=st.sampled_from((-1.0, 1.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_series_closed_agreement_property(self, t, x, y, a, b, sa, sb) -> None:
        ctx2 = QContext(0.25)
        a, b = sa * a, sb * b
        got = asc_poisson_series(t, x, y, a, b, ctx2)
        assert got == pytest.approx(asc_poisson(t, x, y, a, b, ctx2), rel=1e-8, abs=1e-8)

    def test_degenerate_parameters_rejected(self, ctx2: QContext) -> None:
        with pytest.raises(DomainError):
            asc_poisson(0.3, 0.2, 0.2, 0.0, 0.4, ctx2)

    # the half-widths of the draws of identity poisson: t, x, y, a, b
    CLI_LIMITS = np.array([0.8, 0.99, 0.99, 0.95, 0.95])

    @pytest.mark.parametrize("q", (0.05, 0.3, 0.5, 0.9, 0.95, 0.99))
    def test_series_is_the_former_two_step(self, q: float, monkeypatch) -> None:
        # the one loop stops where the former term count did and sums the former
        # series to it: the same bits, or the same ConvergenceError message, on
        # 300 draws of identity poisson's ranges, at the default term cap and at 60
        ctx = QContext(q)
        draws = np.random.default_rng(round(1000 * q)).uniform(
            -self.CLI_LIMITS, self.CLI_LIMITS, (300, 5)
        ).tolist()

        def outcome(call) -> str:
            try:
                return call().hex()
            except ConvergenceError as exc:
                return str(exc)

        for cap in (qseries.MAX_TERMS, 60):
            monkeypatch.setattr(qseries, "MAX_TERMS", cap)
            refused = 0
            for t, x, y, a, b in draws:
                cases = (
                    (lambda: asc_poisson_series(t, x, y, a, b, ctx), a, b),
                    (lambda: cqh_poisson_series(t, x, y, ctx), 0.0, 0.0),
                )
                for call, a_, b_ in cases:
                    got = outcome(call)
                    want = outcome(lambda: reference_poisson_series(
                        t, x, y, a_, b_, ctx, reference_poisson_terms(t, a_, b_, ctx)
                    ))
                    assert got == want, (q, cap, t, x, y, a_, b_)
                    refused += got.startswith("Poisson series")
            assert (refused > 0) == (cap == 60), (q, cap, refused)

    def test_series_refuses_off_the_bound(self, ctx2: QContext) -> None:
        # the tail bound holds for x and y in [-1, 1] and |ab| < 1 only
        for x, y, a, b in (
            (1.0 + 1e-12, 0.2, 0.3, 0.2),
            (0.2, -1.5, 0.3, 0.2),
            (math.nan, 0.2, 0.3, 0.2),
            (0.2, math.nan, 0.0, 0.0),
            (0.2, 0.2, 2.0, 0.5),
            (0.2, 0.2, -2.0, 0.6),
            (0.2, 0.2, math.nan, 0.1),
        ):
            with pytest.raises(DomainError, match=r"x and y in \[-1, 1\] and \|ab\| < 1"):
                asc_poisson_series(0.3, x, y, a, b, ctx2)
        with pytest.raises(DomainError):
            cqh_poisson_series(0.3, 1.2, 0.0, ctx2)
        # the ends of [-1, 1] are in, and t = 0 sums the k = 0 term alone
        assert math.isfinite(asc_poisson_series(0.5, 1.0, -1.0, 0.3, 0.2, ctx2))
        assert asc_poisson_series(0.0, 1.0, -1.0, 0.3, 0.2, ctx2) == 1.0
        assert cqh_poisson_series(0.0, 0.4, 0.1, ctx2) == 1.0

    def test_series_underflow_refused(self) -> None:
        # near q = 1, (q, ab; q)_k underflows before the tail bound stops the sum
        with pytest.raises(ConvergenceError, match="underflows"):
            asc_poisson_series(-0.3, 0.9, -0.9, 0.9, 0.9, QContext(0.998))


MASS_X0 = (1.6 + 1 / 1.6) / 2  # the k = 0 mass point of a = 1.6


class TestBatchedKernels:
    """Each closed form asks for all of its q-shifted factorials in one call,
    and its value is unchanged bit for bit."""

    CASES = {
        "asc_poisson continuous": lambda c: asc_poisson(0.25, 0.3, -0.2, 0.4, -0.3, c),
        "asc_poisson mass point": lambda c: asc_poisson(0.2, MASS_X0, MASS_X0, 1.6, 0.3, c),
        "asc_mass_poisson_tq": lambda c: asc_mass_poisson_tq(2, 20.0, 0.03, c),
        "cqh_poisson": lambda c: cqh_poisson(0.4, 0.3, -0.6, c),
        "cqh_weight": lambda c: cqh_weight(0.3, c),
        "aw_h0": lambda c: aw_h0(0.5, -0.4, 0.3, 0.2, c),
        "aw_theta_weight": lambda c: aw_theta_weight(0.7, 0.5, -0.4, 0.0, 0.2, c),
        "aw_theta_weight grid": lambda c: aw_theta_weight(
            np.linspace(0, 3, 7), 0.5, -0.4, 0.3, 0.2, c
        ),
        "aw_mass_weight": lambda c: aw_mass_weight(20.0, (0.03, 0.0, -0.025), 2, c),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_qpoch_call(self, name: str, ctx2: QContext, monkeypatch) -> None:
        calls = []
        real = qseries.qpoch

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(qseries, "qpoch", counting)
        self.CASES[name](ctx2)
        assert len(calls) == 1

    def test_old_array_helper_gone(self) -> None:
        assert not hasattr(orthopoly, "_qpoch_inf_array")

    @pytest.mark.parametrize("q", [0.3, 0.7, 0.95])
    def test_asc_poisson_matches_separate_calls(self, q: float) -> None:
        ctx2 = QContext(q * q)
        t, x, y, a, b = q * q, 0.35, -0.8, 0.45, -0.6
        z1 = complex(x) + cmath.sqrt(complex(x * x - 1.0))
        z2 = complex(y) + cmath.sqrt(complex(y * y - 1.0))
        num = 1.0 + 0.0j
        for w in (a * t * z1, a * t / z1, b * t * z2, b * t / z2, t + 0.0j):
            num *= qpoch(w, ctx2)
        den = qpoch(a * b * t + 0.0j, ctx2)
        for w in (t * z1 * z2, t * z1 / z2, t * z2 / z1, t / (z1 * z2)):
            den *= qpoch(w, ctx2)
        w87_val = qseries.w87(a * b * t / ctx2.q, t, b * z1, b / z1, a * z2, a / z2, ctx2, t)
        want = float((num / den * w87_val).real)
        assert asc_poisson(t, x, y, a, b, ctx2).hex() == want.hex()

    def test_theta_weight_truncates_each_element_like_scalar(self, ctx2: QContext) -> None:
        theta = np.linspace(0.05, 3.0, 9)
        params = (0.9, -0.5, 0.3, 0.0)
        z = np.exp(1j * theta)
        rows = [z * z] + [e * z for e in params if e != 0.0]
        vals = np.array([[qpoch(complex(w), ctx2) for w in row] for row in rows])
        want = np.abs(vals[0]) ** 2
        den = np.ones_like(want)
        for v in vals[1:]:
            den *= np.abs(v) ** 2
        got = aw_theta_weight(theta, *params, ctx2)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in (want / den).tolist()]

    def test_poisson_series_match_separate_recurrences(self, ctx2: QContext) -> None:
        # each series stops at the former term count of its own parameters
        t, x, y, a, b = 0.3, 0.2, -0.7, 0.4, -0.25
        n_asc, n_cqh = reference_poisson_terms(t, a, b, ctx2), reference_poisson_terms(t, 0.0, 0.0, ctx2)
        assert n_asc != n_cqh
        px, py = asc_all(n_asc, x, a, b, ctx2), asc_all(n_asc, y, a, b, ctx2)
        hx, hy = cqh_all(n_cqh, x, ctx2), cqh_all(n_cqh, y, ctx2)

        def separate(n, px, py, ab):
            total, tk, poch, qk = 0.0, 1.0, 1.0, 1.0
            for k in range(n + 1):
                if k > 0:
                    tk *= t
                    poch *= (1.0 - qk) * (1.0 - ab * qk / ctx2.q)
                total += tk * px[k] * py[k] / poch
                qk *= ctx2.q
            return float(total)

        assert asc_poisson_series(t, x, y, a, b, ctx2).hex() == separate(n_asc, px, py, a * b).hex()
        assert cqh_poisson_series(t, x, y, ctx2).hex() == separate(n_cqh, hx, hy, 0.0).hex()

    def test_cqh_all_array_matches_scalar(self, ctx: QContext) -> None:
        xs = np.array([-0.9, 0.0, 0.35, 1.0])
        got = cqh_all(12, xs, ctx)
        assert got.shape == (13, 4)
        for j, x in enumerate(xs.tolist()):
            want = cqh_all(12, x, ctx)
            assert [v.hex() for v in got[:, j].tolist()] == [v.hex() for v in want.tolist()]


class TestGramIdentity:
    def test_asc_orthonormal_no_mass_gram(self, ctx: QContext, ctx2: QContext) -> None:
        # c = d = 0 measure reproduces the family's orthogonality
        q = ctx.q
        s_par, t_par = q**0.3, q**0.2
        a, b = q * t_par / s_par, -q / (s_par * t_par)
        spec = aw_measure(AWParams(a, b, 0.0, 0.0, ctx2))
        assert spec.masses == ()
        nm = 16
        acc = np.zeros((nm, nm))
        for th, w in zip(spec.theta_nodes, spec.theta_weights):
            v = asc_orthonormal(nm - 1, float(np.cos(th)), s_par, t_par, ctx2)
            acc += w * np.outer(v, v)
        assert np.max(np.abs(acc - np.eye(nm))) < 1e-8


class TestRefusedByName:
    """Inputs outside a closed form's domain raise a QHaarError naming the
    input, before any float arithmetic can raise or warn."""

    CASES = {
        "asc_orthonormal s=0": (lambda c: asc_orthonormal(3, 0.2, 0.0, 1.0, c), "s=0.0"),
        "asc_orthonormal t=0": (lambda c: asc_orthonormal(3, 0.2, 1.0, 0.0, c), "t=0.0"),
        "asc_mass_poisson_tq a=0": (lambda c: asc_mass_poisson_tq(0, 0.0, 0.3, c), "a=0.0"),
        "asc_mass_poisson_tq a=1e-320": (lambda c: asc_mass_poisson_tq(0, 1e-320, 0.3, c), "a=1e-320"),
        "aw_mass_weight e=0": (lambda c: aw_mass_weight(0.0, (0.3, 0.0, 0.0), 0, c), "e=0.0"),
        "aw_mass_weight e=1e-320": (lambda c: aw_mass_weight(1e-320, (0.3, 0.0, 0.0), 0, c), "e=1e-320"),
        # k off the ladder of a mass parameter that has one: the old TestBatchedKernels pins
        "asc_mass_poisson_tq k=2": (lambda c: asc_mass_poisson_tq(2, 3.0, 0.2, c), "k=2 is off"),
        "aw_mass_weight k=2": (lambda c: aw_mass_weight(2.0, (0.3, 0.0, -0.25), 2, c), "k=2 is off"),
        "q_charlier n=2000": (lambda c: q_charlier(2000, 0.3, 1.0, c), "n = 2000"),
        "aw_theta_weight theta=inf": (lambda c: aw_theta_weight(math.inf, 0.3, 0.2, 0.0, 0.0, c), "theta"),
        "aw_theta_weight theta=-inf": (lambda c: aw_theta_weight(-math.inf, 0.3, 0.2, 0.0, 0.0, c), "theta"),
        "AWParams a=inf": (lambda c: AWParams(math.inf, -0.5, -0.5, -0.5, c), "finite"),
        "AWParams a=-inf": (lambda c: AWParams(-math.inf, 0.5, 0.5, 0.5, c), "finite"),
        "AWParams b=nan": (lambda c: AWParams(0.3, math.nan, 0.1, 0.1, c), "finite"),
        "cqh x=inf": (lambda c: cqh(4, math.inf, c), "x=inf"),
        # b q^2 = 1 at q = 1e-3: a pole of the weight on theta = 0, where its numerator vanishes
        "aw_theta_weight pole": (
            lambda c: aw_theta_weight(0.0, 0.3, 1e6, 0.1, 0.2, QContext(1e-3)), r"theta = 0.0 is a pole"
        ),
        "mass_identity_check b=0": (
            lambda c: mass_identity_check(1e6, 0.0, 1, QContext(1e-3)), "b = 0 makes q/b"
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_refused(self, name: str, ctx: QContext) -> None:
        call, match = self.CASES[name]
        with pytest.raises(QHaarError, match=match):
            call(ctx)

"""q-Pochhammer, basic hypergeometric series, and Jackson integration."""
from __future__ import annotations

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhaar import (
    ConvergenceError,
    DomainError,
    QContext,
    SeriesSpec,
    phi_rs,
    q_integral,
    qpoch,
    qpoch_prod,
    w87,
)
from qhaar.qseries import Factorials, neg_power_index

mp.mp.dps = 40


def mp_qpoch(a: float, q: float, n: int | None = None) -> float:
    if n is None:
        return float(mp.qp(mp.mpf(a), mp.mpf(q)))
    return float(mp.qp(mp.mpf(a), mp.mpf(q), n))


class TestQContext:
    def test_rejects_q_outside_open_interval(self) -> None:
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                QContext(bad)

    def test_squared_squares_base(self, ctx: QContext) -> None:
        assert ctx.squared().q == 0.25


class TestQPoch:
    def test_empty_product_is_one(self, ctx: QContext) -> None:
        assert qpoch(0.3, ctx, 0) == 1.0

    def test_finite_against_mpmath(self, ctx: QContext) -> None:
        for a in (0.3, -0.7, 1.9, -2.4):
            for n in (1, 2, 5, 12):
                assert qpoch(a, ctx, n) == pytest.approx(mp_qpoch(a, 0.5, n), rel=1e-13)

    def test_infinite_against_mpmath(self, ctx: QContext) -> None:
        for a in (0.3, -0.7, 0.99, -0.99):
            assert qpoch(a, ctx) == pytest.approx(mp_qpoch(a, 0.5), rel=1e-12)

    def test_prod_multiplies(self, ctx: QContext) -> None:
        got = qpoch_prod((0.3, -0.5, 0.1), ctx, 4)
        want = qpoch(0.3, ctx, 4) * qpoch(-0.5, ctx, 4) * qpoch(0.1, ctx, 4)
        assert got == pytest.approx(want, rel=1e-14)

    @given(
        a=st.floats(-2.0, 2.0),
        m=st.integers(0, 8),
        n=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_splitting_law(self, a: float, m: int, n: int) -> None:
        # (a;q)_{m+n} = (a;q)_m (a q^m; q)_n
        ctx = QContext(0.5)
        lhs = qpoch(a, ctx, m + n)
        rhs = qpoch(a, ctx, m) * qpoch(a * 0.5**m, ctx, n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def hex_of(v) -> tuple[str, str]:
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def scalar_hex(values, ctx: QContext, ks) -> list[tuple[str, str]]:
    return [hex_of(qpoch(x, ctx, k)) for x, k in zip(values, ks)]


class TestFactorials:
    @staticmethod
    def value(form: Factorials, ctx: QContext):
        return form.evaluate(ctx)

    def test_join_equals_separate_forms(self) -> None:
        ctx = QContext(0.7)
        real = Factorials(
            [0.3, -1.4, 2.0], lambda v: math.prod(v.real.tolist(), start=1.0), [math.inf, 3, 0]
        )
        cplx = Factorials([0.5 + 0.2j, -0.1j], lambda v: v.tolist()[0] / v.tolist()[1])
        grid = Factorials(np.full((2, 3), 0.25), lambda v: v.real.reshape(2, 3).sum(axis=0))
        empty = Factorials([], lambda v: 1.0)
        forms = [real, empty, cplx, grid]
        joined = Factorials.join(forms)
        assert joined.params.size == 3 + 0 + 2 + 6 and joined.params.dtype == complex
        assert joined.ks.tolist() == [math.inf, 3, 0] + [math.inf] * 8
        got = self.value(joined, ctx)
        want = [self.value(f, ctx) for f in forms]
        assert got[:3] == want[:3] and type(got[0]) is float
        assert got[3].tolist() == want[3].tolist()
        # combine receives the values in order
        total = Factorials.join([real, empty], lambda x, y: x + y)
        assert self.value(total, ctx) == want[0] + 1.0

    def test_nested_join_and_no_forms(self) -> None:
        ctx = QContext(0.4)
        single = Factorials([0.2], lambda v: float(v[0].real))
        inner = Factorials.join([single, single], lambda x, y: x * y)
        outer = Factorials.join([inner, single])
        got = self.value(outer, ctx)
        assert got == [qpoch(0.2, ctx) * qpoch(0.2, ctx), qpoch(0.2, ctx)]
        assert self.value(Factorials.join([]), ctx) == []

    def test_evaluate_refuses_non_finite_factorial(self) -> None:
        # (-1e300; q)_inf overflows after its first two factors
        with pytest.raises(ConvergenceError, match="not finite"):
            Factorials([0.2, -1e300], lambda v: 1.0).evaluate(QContext(0.5))

    def test_evaluate_refuses_division_by_underflow(self) -> None:
        # (q;q)_inf = 2.1e-70 at q = 0.99 is finite; five of them underflow
        ctx = QContext(0.99)
        assert qpoch(0.99, ctx) > 1e-71
        scalar = Factorials([0.99] * 5, lambda v: 1.0 / math.prod(v.real.tolist()))
        array = Factorials([0.99] * 5, lambda v: np.ones(2) / np.prod(v.real))
        for form in (scalar, array):
            with pytest.raises(ConvergenceError, match="underflows to zero"):
                form.evaluate(ctx)


class TestArrayQpoch:
    MAGNITUDES = (0.0, 1e-16, 0.3, 1.5)

    def inputs(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        mags = np.tile(self.MAGNITUDES, 6) * rng.uniform(0.5, 2.0, 4 * 6)
        signs = rng.choice((-1.0, 1.0), mags.size)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, mags.size))
        return {"real": mags * signs, "complex": mags * phases}

    @pytest.mark.parametrize("q", [0.09, 0.5, 0.81, 0.9025, 0.99])
    @pytest.mark.parametrize("k", [None, math.inf, 0, 1, 7, 40])
    def test_matches_scalar_bits(self, q: float, k, rng: np.random.Generator) -> None:
        ctx = QContext(q)
        for kind, a in self.inputs(rng).items():
            got = qpoch(a, ctx, k)
            assert got.shape == a.shape
            assert got.dtype == (complex if kind == "complex" else float)
            want = scalar_hex(a.tolist(), ctx, [k] * a.size)
            assert [hex_of(v) for v in got.tolist()] == want

    @pytest.mark.parametrize("q", [0.5, 0.9025])
    def test_per_element_k(self, q: float, rng: np.random.Generator) -> None:
        ctx = QContext(q)
        a = self.inputs(rng)["complex"]
        ks = [(math.inf, 0, 3, 25)[i % 4] for i in range(a.size)]
        got = qpoch(a, ctx, np.array(ks, dtype=float))
        assert [hex_of(v) for v in got.tolist()] == scalar_hex(a.tolist(), ctx, ks)

    def test_products_longer_than_one_block(self) -> None:
        # about 7.5k factors at q = 0.995 and a finite k of 5000: each row
        # spans several column blocks and carries its product across them
        ctx = QContext(0.995)
        a = np.array([1.5, -0.7 + 0.2j, 1e-3j, 0.0])
        for k in (None, 5000):
            got = qpoch(a, ctx, k)
            assert [hex_of(v) for v in got.tolist()] == scalar_hex(a.tolist(), ctx, [k] * 4)

    def test_shape_and_sequence_input(self, ctx: QContext) -> None:
        grid = np.linspace(-0.9, 0.9, 6).reshape(2, 3)
        got = qpoch(grid, ctx)
        assert got.shape == (2, 3)
        assert qpoch([0.3, -0.5], ctx).tolist() == [qpoch(0.3, ctx), qpoch(-0.5, ctx)]
        assert qpoch([], ctx).shape == (0,)

    def test_short_finite_product_beside_long_one_stays_finite(self) -> None:
        # a third factor of a = 1e150 would overflow the running product
        ctx = QContext(0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = qpoch([1e150, 0.5], ctx, [2, math.inf])
        assert [hex_of(v) for v in got.tolist()] == scalar_hex([1e150, 0.5], ctx, [2, None])

    def test_convergence_error_like_scalar(self) -> None:
        ctx = QContext(0.99, max_terms=10)
        with pytest.raises(ConvergenceError):
            qpoch(0.3, ctx)
        with pytest.raises(ConvergenceError):
            qpoch(np.array([0.0, 1e-16, 0.3]), ctx)
        with pytest.raises(ConvergenceError):
            qpoch(np.array([0.3, math.nan]), QContext(0.5))
        # finite products ignore max_terms, as the scalar path does
        assert qpoch(np.array([0.3]), ctx, 12)[0] == qpoch(0.3, ctx, 12)

    def test_bad_k_rejected(self, ctx: QContext) -> None:
        for k in ([1, -1], [0.5, 2], [math.nan, 1]):
            with pytest.raises(DomainError):
                qpoch(np.array([0.3, 0.4]), ctx, k)

    def test_memory_stays_in_blocks(self) -> None:
        ctx = QContext(0.9025)
        theta = np.linspace(0.0, math.pi, 1024)
        z = np.exp(1j * theta)
        rows = np.stack([z * z] + [e * z for e in (0.9, -0.5, 0.3, 0.95)])
        tracemalloc.start()
        try:
            qpoch(rows, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestPhiRs:
    def test_terminating_q_binomial(self, ctx: QContext) -> None:
        # 1phi0(q^-n; -; q, q^n x) = (x;q)_n at n=3, x=0.7
        n, x = 3, 0.7
        got = phi_rs(SeriesSpec((0.5**-n,), (), 0.5**n * x, ctx))
        assert got.real == pytest.approx(qpoch(x, ctx, n), rel=1e-13)
        assert abs(got.imag) < 1e-15

    def test_euler_sum_against_mpmath(self, ctx: QContext) -> None:
        # 1phi0(a; -; q, z) = (az;q)_inf/(z;q)_inf
        a, z = 0.4, 0.6
        got = phi_rs(SeriesSpec((a,), (), z, ctx))
        want = mp_qpoch(a * z, 0.5) / mp_qpoch(z, 0.5)
        assert got.real == pytest.approx(want, rel=1e-12)

    def test_2phi1_against_mpmath_series(self, ctx: QContext) -> None:
        a, b, c, z = 0.3, -0.4, 0.7, 0.55
        got = phi_rs(SeriesSpec((a, b), (c,), z, ctx))
        tot, term = mp.mpf(0), mp.mpf(1)
        for j in range(200):
            tot += term
            term *= (1 - a * mp.mpf(0.5) ** j) * (1 - b * mp.mpf(0.5) ** j)
            term /= (1 - mp.mpf(0.5) ** (j + 1)) * (1 - c * mp.mpf(0.5) ** j)
            term *= z
        assert got.real == pytest.approx(float(tot), rel=1e-12)

    def test_terminating_matches_partial_sum(self, ctx: QContext) -> None:
        # upper parameter q^-n cuts the series after n+1 terms
        n = 4
        a = 0.5**-n
        spec = SeriesSpec((a, 0.3), (0.7,), 2.5, ctx)
        tot, term = 0.0, 1.0
        for j in range(n + 1):
            tot += term
            term *= (1 - a * 0.5**j) * (1 - 0.3 * 0.5**j)
            term /= (1 - 0.5 ** (j + 1)) * (1 - 0.7 * 0.5**j)
            term *= 2.5
        assert phi_rs(spec).real == pytest.approx(tot, rel=1e-13)

    def test_nonterminating_divergent_raises(self, ctx: QContext) -> None:
        with pytest.raises(ConvergenceError):
            phi_rs(SeriesSpec((0.3,), (), 1.2, ctx))


def reference_w87(a, b, c, d, e, f, ctx: QContext, z):
    """The 8W7 loop as first written: abs() and the stopping test every term."""
    q = ctx.q
    numer = (b, c, d, e, f)
    denom = tuple(q * a / p for p in numer)
    hits = [n + 1 for n in (neg_power_index(p, q) for p in (a,) + numer) if n is not None]
    n_terms = min(hits) if hits else None
    total = 0.0 + 0.0j
    u = 1.0 + 0.0j
    qk = 1.0
    q2k = 1.0
    for k in range(ctx.max_terms):
        total += u * (1.0 - a * q2k) / (1.0 - a)
        if n_terms is not None:
            if k + 1 >= n_terms:
                break
        else:
            ok = all(abs(p) * qk < 1.0 for p in denom)
            if ok:
                ratio = abs(z) * (1.0 + abs(a) * qk)
                for p in numer:
                    ratio *= 1.0 + abs(p) * qk
                ratio /= 1.0 - q * qk
                for p in denom:
                    ratio /= 1.0 - abs(p) * qk
                vbound = (1.0 + abs(a) * q2k) / abs(1.0 - a)
                tk = abs(u) * vbound
                if ratio < 1.0 and tk <= ctx.tail_tol and tk * ratio / (1.0 - ratio) <= ctx.tail_tol:
                    break
        factor = z * (1.0 - a * qk)
        for p in numer:
            factor *= 1.0 - p * qk
        factor /= 1.0 - q * qk
        for p in denom:
            factor /= 1.0 - p * qk
        u *= factor
        qk *= q
        q2k *= q * q
    else:
        raise ConvergenceError("reference w87 did not converge")
    return total


class TestW87:
    def test_matches_defining_series(self, ctx: QContext) -> None:
        # sum_j (a;q)_j (1-aq^{2j}) (b,c,d,e,f;q)_j z^j
        #       / ((1-a)(q;q)_j (aq/b,...,aq/f;q)_j)
        q = mp.mpf(0.5)
        a, b, c, d, e, f = 0.2, 0.3, -0.25, 0.15, 0.12, -0.2
        z = 0.35
        got = w87(a, b, c, d, e, f, ctx, z)
        tot = mp.mpf(0)
        for j in range(120):
            num = mp.qp(a, q, j) * (1 - a * q ** (2 * j)) * mp.mpf(z) ** j
            den = (1 - mp.mpf(a)) * mp.qp(q, q, j)
            for p_ in (b, c, d, e, f):
                num *= mp.qp(p_, q, j)
                den *= mp.qp(a * q / p_, q, j)
            tot += num / den
        assert got.real == pytest.approx(float(tot), rel=1e-10)

    def test_hex_identical_to_reference_loop(self, rng: np.random.Generator) -> None:
        cases = []
        # Poisson-kernel shapes: 8W7(abt/q; t, b z1, b/z1, a z2, a/z2; q, t)
        for q in (0.09, 0.25, 0.5, 0.81, 0.9025):
            for _ in range(12):
                a, b = rng.uniform(-0.9, 0.9, 2)
                t = rng.uniform(-0.8, 0.8)
                z1, z2 = np.exp(1j * rng.uniform(0.0, math.pi, 2))
                cases.append((q, (a * b * t / q, t, b * z1, b / z1, a * z2, a / z2), t))
        # terminating through a = q^-2 and through b = q^-3
        cases.append((0.5, (0.5**-2, 0.3, -0.2, 0.1 + 0.2j, 0.1 - 0.2j, 0.4), 0.7))
        cases.append((0.5, (0.2, 0.5**-3, -0.25, 0.15, 0.12, -0.2), 0.35))
        # the term bound drops below tail_tol by k = 2, but q a / b = 22.5 q
        # keeps the ratio test closed until q^k < 1/22.5 (k = 5 at q = 0.5)
        cases.append((0.5, (0.9, 0.02, 0.3, -0.4, 0.5 + 0.1j, 0.5 - 0.1j), 1e-9))
        cases.append((0.81, (0.6, 0.01, 0.2, 0.3, -0.3, 0.25), 1e-8 + 1e-9j))
        for q, params, z in cases:
            ctx = QContext(q)
            got = w87(*params, ctx, z)
            assert hex_of(got) == hex_of(reference_w87(*params, ctx, z)), (q, params, z)

    def test_zero_at_pole_cancellation(self, ctx: QContext) -> None:
        # W(q^{-l-1}; z, b e^{it}, b e^{-it}, a e^{is}, a e^{-is}; z) with
        # z = q^{-l}/(ab) vanishes identically for integer l >= 0
        q = ctx.q
        for a, b in ((1.6, 0.3), (2.5, -0.2)):
            for th, ps in ((0.7, 1.3), (2.1, 0.4)):
                for el in range(3):
                    z = q**-el / (a * b)
                    got = w87(
                        q ** (-el - 1),
                        z,
                        b * complex(math.cos(th), math.sin(th)),
                        b * complex(math.cos(th), -math.sin(th)),
                        a * complex(math.cos(ps), math.sin(ps)),
                        a * complex(math.cos(ps), -math.sin(ps)),
                        ctx,
                        z,
                    )
                    assert abs(got) <= 1e-9


class TestQIntegral:
    def test_linear_closed_form(self, ctx: QContext) -> None:
        # int_0^1 x d_q x = 1/(1+q) = 2/3 at q = 1/2
        assert q_integral(lambda x: x, 0.0, 1.0, ctx) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_monomials_all_degrees(self, ctx: QContext) -> None:
        # int_0^b x^m d_q x = b^{m+1}(1-q)/(1-q^{m+1})
        q = ctx.q
        for b in (1.0, 0.7):
            for m in range(11):
                want = b ** (m + 1) * (1 - q) / (1 - q ** (m + 1))
                got = q_integral(lambda x, m=m: x**m, 0.0, b, ctx)
                assert got == pytest.approx(want, rel=1e-12)

    def test_interval_additivity(self, ctx: QContext) -> None:
        f = lambda x: x**3 - 0.2 * x
        full = q_integral(f, 0.0, 1.0, ctx)
        split = q_integral(f, 0.0, 0.4, ctx) + q_integral(f, 0.4, 1.0, ctx)
        assert full == pytest.approx(split, rel=1e-12)

    @given(
        c0=st.floats(-2, 2),
        c1=st.floats(-2, 2),
        c2=st.floats(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, c0: float, c1: float, c2: float) -> None:
        ctx = QContext(0.5)
        f = lambda x: c0 + c1 * x + c2 * x * x
        got = q_integral(f, 0.0, 1.0, ctx)
        want = (
            c0 * q_integral(lambda x: 1.0, 0.0, 1.0, ctx)
            + c1 * q_integral(lambda x: x, 0.0, 1.0, ctx)
            + c2 * q_integral(lambda x: x * x, 0.0, 1.0, ctx)
        )
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestNegPowerIndex:
    def test_recovers_exponent(self) -> None:
        assert neg_power_index(0.5**-7, 0.5) == 7

    def test_rejects_off_lattice(self) -> None:
        assert neg_power_index(3.1, 0.5) is None

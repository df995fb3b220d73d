"""q-Pochhammer, basic hypergeometric series, and Jackson integration."""
from __future__ import annotations

import cmath
import dataclasses
import io
import json
import math
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

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
    w87,
)
from qhaar import cli, haarverify, orthopoly, qseries, qsu2rep
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

    def test_equality_and_hash_follow_q_alone(self) -> None:
        # contexts are cache keys: equal bases give equal keys
        assert [f.name for f in dataclasses.fields(QContext)] == ["q"]
        assert QContext(0.5) == QContext(0.5) and hash(QContext(0.5)) == hash(QContext(0.5))
        assert QContext(0.5).squared() == QContext(0.25)
        assert hash(QContext(0.5).squared()) == hash(QContext(0.25))
        assert QContext(0.5) != QContext(0.3)
        assert len({QContext(0.5), QContext(0.5), QContext(0.3)}) == 2


class TestQPoch:
    def test_empty_product_is_one(self, ctx: QContext) -> None:
        assert qpoch(0.3, ctx, 0) == 1.0

    @pytest.mark.parametrize("k, named", [(None, "None"), ("3", "'3'"), ([2, None], "None")])
    def test_k_not_a_number_is_named(self, ctx: QContext, k, named: str) -> None:
        # the message names what was passed, not the nan a float cast makes of it
        with pytest.raises(DomainError, match=f"got {named}$"):
            qpoch(0.3, ctx, k)
        with pytest.raises(DomainError, match="got nan$"):
            qpoch(0.3, ctx, math.nan)

    def test_k_spellings_give_the_same_bits(self, ctx: QContext) -> None:
        a = [0.3, -0.7, 1.9]
        want = [v.hex() for v in qpoch(a, ctx, [4.0, 4.0, math.inf]).tolist()]
        for k in ([4, 4, math.inf], np.array([4, 4, math.inf]), (4.0, 4.0, math.inf)):
            assert [v.hex() for v in qpoch(a, ctx, k).tolist()] == want
        assert qpoch(0.3, ctx, 1).hex() == qpoch(0.3, ctx, True).hex() == qpoch(0.3, ctx, np.int64(1)).hex()

    def test_finite_against_mpmath(self, ctx: QContext) -> None:
        for a in (0.3, -0.7, 1.9, -2.4):
            for n in (1, 2, 5, 12):
                assert qpoch(a, ctx, n) == pytest.approx(mp_qpoch(a, 0.5, n), rel=1e-13)

    def test_infinite_against_mpmath(self, ctx: QContext) -> None:
        for a in (0.3, -0.7, 0.99, -0.99):
            assert qpoch(a, ctx) == pytest.approx(mp_qpoch(a, 0.5), rel=1e-12)

    def test_prod_multiplies(self, ctx: QContext) -> None:
        got = math.prod(qpoch([0.3, -0.5, 0.1], ctx, 4))
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


def reference_qpoch(a, ctx: QContext, k=math.inf):
    """(a;q)_k by the scalar loop: one factor at a time, in order from i = 0,
    the infinite product cut at the first |a| q^i < TAIL_TOL (1 - q)."""
    q = ctx.q
    if k != math.inf:
        if k < 0 or k != int(k):
            raise DomainError(f"k must be a nonnegative integer or inf, got {k!r}")
        out = 1.0 + 0.0j if isinstance(a, complex) else 1.0
        qi = 1.0
        for _ in range(int(k)):
            out *= 1.0 - a * qi
            qi *= q
        return out
    threshold = qseries.TAIL_TOL * (1.0 - q)
    out = 1.0 + 0.0j if isinstance(a, complex) else 1.0
    qi = 1.0
    for i in range(qseries.MAX_TERMS):
        if abs(a) * qi < threshold:
            return out
        out *= 1.0 - a * qi
        qi *= q
    raise ConvergenceError("reference (a;q)_inf did not reach TAIL_TOL")


def hex_of(v) -> tuple[str, str]:
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def scalar_hex(values, ctx: QContext, ks) -> list[tuple[str, str]]:
    return [hex_of(reference_qpoch(x, ctx, k)) for x, k in zip(values, ks)]


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
        params = np.array(joined._params)
        assert params.size == 3 + 0 + 2 + 6 and params.dtype == complex
        assert joined._ks == [math.inf, 3, 0] + [math.inf] * 8
        got = self.value(joined, ctx)
        want = [self.value(f, ctx) for f in forms]
        assert got[:3] == want[:3] and type(got[0]) is float
        assert got[3].tolist() == want[3].tolist()
        # combine receives the values in order
        total = Factorials.join([real, empty], lambda x, y: x + y)
        assert self.value(total, ctx) == want[0] + 1.0

    def test_float_and_mixed_series_in_one_w87_call(self, monkeypatch) -> None:
        # two kernels with complex arguments and one all-float mass-point
        # kernel: one array w87 call for all three, and every value as the
        # form evaluated alone
        ctx = QContext(0.5)
        x0 = (1.6 + 1 / 1.6) / 2  # the k = 0 mass point of a = 1.6
        forms = [
            orthopoly._asc_poisson_form(0.25, 0.3, -0.2, 0.4, -0.3, ctx),
            orthopoly._asc_poisson_form(0.2, x0, x0, 1.6, 0.3, ctx),
            orthopoly._asc_poisson_form(-0.6, 0.9, 0.1, -0.7, 0.5, ctx),
        ]
        want = [f.evaluate(ctx) for f in forms]
        batches = []
        real_w87 = qseries.w87

        def counting(*args):
            batches.append(np.broadcast(*args[:6], args[7]).size)
            return real_w87(*args)

        monkeypatch.setattr(qseries, "w87", counting)
        joined = Factorials.join(forms)
        assert len(joined.series) == 3
        assert [v.hex() for v in joined.evaluate(ctx)] == [v.hex() for v in want]
        assert batches == [3]

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
    @pytest.mark.parametrize("k", [math.inf, 0, 1, 7, 40])
    def test_matches_scalar_bits(self, q: float, k, rng: np.random.Generator) -> None:
        ctx = QContext(q)
        for kind, a in self.inputs(rng).items():
            got = qpoch(a, ctx, k)
            assert got.shape == a.shape
            assert got.dtype == (complex if kind == "complex" else float)
            want = scalar_hex(a.tolist(), ctx, [k] * a.size)
            assert [hex_of(v) for v in got.tolist()] == want
            # a scalar call is a batch of one and returns a Python number
            alone = [qpoch(x, ctx, k) for x in a.tolist()]
            assert [hex_of(v) for v in alone] == want
            assert {type(v) for v in alone} == {complex if kind == "complex" else float}

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
        for k in (math.inf, 5000):
            got = qpoch(a, ctx, k)
            assert [hex_of(v) for v in got.tolist()] == scalar_hex(a.tolist(), ctx, [k] * 4)

    def test_carry_into_a_single_factor(self) -> None:
        # k = 4096 = _BLOCK: the factors after the first 4095 would form a
        # last block of one factor and the carried product, which numpy
        # multiplies with fused operations
        ctx = QContext(0.999)
        a = 0.05 * np.exp(1j * np.linspace(0.3, 6.0, 8))
        for k in (4095, 4096, 4097, 8191):
            got = qpoch(a, ctx, k)
            assert [hex_of(v) for v in got.tolist()] == scalar_hex(a.tolist(), ctx, [k] * a.size)

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
        assert [hex_of(v) for v in got.tolist()] == scalar_hex([1e150, 0.5], ctx, [2, math.inf])

    def test_convergence_error_like_scalar(self, monkeypatch) -> None:
        ctx = QContext(0.99)
        with pytest.raises(ConvergenceError):
            qpoch(np.array([0.3, math.nan]), QContext(0.5))
        monkeypatch.setattr(qseries, "MAX_TERMS", 10)
        with pytest.raises(ConvergenceError):
            qpoch(0.3, ctx)
        with pytest.raises(ConvergenceError):
            qpoch(np.array([0.0, 1e-16, 0.3]), ctx)
        # finite products ignore MAX_TERMS
        assert qpoch(np.array([0.3]), ctx, 12)[0] == qpoch(0.3, ctx, 12)

    def test_bad_k_rejected(self, ctx: QContext) -> None:
        for k in ([1, -1], [0.5, 2], [math.nan, 1]):
            with pytest.raises(DomainError):
                qpoch(np.array([0.3, 0.4]), ctx, k)
        for k in (-1, 0.5, math.nan):
            with pytest.raises(DomainError):
                qpoch(0.3, ctx, k)

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
        # a complex term whose modulus overflows while both parts are finite
        spec = SeriesSpec((-0.0725 - 0.6576j,), (), 0.6424 - 0.8344j, QContext(0.7361))
        with pytest.raises(ConvergenceError):
            phi_rs(spec)

    def test_non_finite_sum_raises(self, ctx: QContext) -> None:
        # four terminating terms with finite parameters whose sum leaves the float range
        with pytest.raises(ConvergenceError, match="not finite"):
            phi_rs(SeriesSpec((8.0,), (), 1e300, ctx))


def reference_phi_rs(spec: SeriesSpec):
    """The r_phi_s loop as first written: the ratio bound every term."""
    ctx = spec.base
    q = ctx.q
    r, s = len(spec.upper), len(spec.lower)
    e = 1 + s - r
    hits = [n for a in spec.upper if (n := neg_power_index(a, q)) is not None]
    n_terms = min(hits) + 1 if hits else None
    for b in spec.lower:
        m = neg_power_index(b, q)
        if m is not None and (n_terms is None or n_terms > m + 1):
            raise DomainError("reference lower parameter pole")
    if e < 0 and n_terms is None:
        raise DomainError("reference zero radius of convergence")
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    qk = 1.0
    for k in range(qseries.MAX_TERMS):
        total += term
        if n_terms is not None:
            if k + 1 >= n_terms:
                break
        else:
            ok = all(abs(b) * qk < 1.0 for b in spec.lower)
            if ok:
                ratio = abs(spec.z) * (q ** (k * e) if e else 1.0)
                for a in spec.upper:
                    ratio *= 1.0 + abs(a) * qk
                ratio /= 1.0 - q * qk
                for b in spec.lower:
                    ratio /= 1.0 - abs(b) * qk
                if (
                    ratio < 1.0
                    and abs(term) <= qseries.TAIL_TOL
                    and abs(term) * ratio / (1.0 - ratio) <= qseries.TAIL_TOL
                ):
                    break
        factor = spec.z
        for a in spec.upper:
            factor *= 1.0 - a * qk
        factor /= 1.0 - q * qk
        for b in spec.lower:
            factor /= 1.0 - b * qk
        if e:
            factor *= (-qk) ** e
        term *= factor
        qk *= q
    else:
        raise ConvergenceError("reference phi_rs did not converge")
    return total


class TestPhiRsReference:
    QS = (0.09, 0.3, 0.5, 0.81, 0.95)

    def cases(self, rng: np.random.Generator) -> list[SeriesSpec]:
        def u(lo: float, hi: float, n: int) -> tuple:
            return tuple(rng.uniform(lo, hi, n).tolist())

        specs = []
        for q in self.QS:
            ctx = QContext(q)
            for _ in range(4):
                # nonterminating 2phi1 and 3phi2, real and complex z
                specs.append(SeriesSpec(u(-0.9, 0.9, 2), u(-0.9, 0.9, 1), u(-0.9, 0.9, 1)[0], ctx))
                z = complex(*u(-0.6, 0.6, 2))
                specs.append(SeriesSpec(u(-0.9, 0.9, 3), u(-0.9, 0.9, 2), z, ctx))
                # e = 1: 1phi1 converges for every z
                specs.append(SeriesSpec(u(-2.0, 2.0, 1), u(-0.9, 0.9, 1), complex(*u(-3.0, 3.0, 2)), ctx))
                # termination through an upper q^-n, in a 2phi1 and (e = -1) a 3phi1
                n = int(rng.integers(0, 8))
                specs.append(SeriesSpec((q**-n,) + u(-0.9, 0.9, 1), u(-0.9, 0.9, 1), 2.5, ctx))
                specs.append(
                    SeriesSpec(u(-0.9, 0.9, 1) + (q**-n, 0.4 + 0.3j), u(-0.9, 0.9, 1), complex(*u(-2, 2, 2)), ctx)
                )
        return specs

    def test_hex_identical_to_reference_loop(self, rng: np.random.Generator) -> None:
        for spec in self.cases(rng):
            assert hex_of(phi_rs(spec)) == hex_of(reference_phi_rs(spec)), spec

    def test_one_complex_upper_parameter_and_complex_z(self, rng: np.random.Generator) -> None:
        # 1phi0(a; ; q, z) multiplies two complex numbers per factor, z (1 - a q^k)
        for q in self.QS:
            ctx = QContext(q)
            for _ in range(8):
                a, z = complex(*rng.uniform(-0.9, 0.9, 2)), complex(*rng.uniform(-0.6, 0.6, 2))
                spec = SeriesSpec((a,), (), z, ctx)
                assert hex_of(phi_rs(spec)) == hex_of(reference_phi_rs(spec)), spec

    def test_domain_errors_like_reference(self, ctx: QContext) -> None:
        # a lower q^-2 before an upper q^-4 ends the series; a 3phi1 that
        # does not terminate has zero radius of convergence
        for spec in (
            SeriesSpec((0.5**-4, 0.3), (0.5**-2,), 0.7, ctx),
            SeriesSpec((0.3, 0.2), (0.5**-1,), 0.7, ctx),
            SeriesSpec((0.3, 0.2, 0.1), (0.4,), 0.7, ctx),
        ):
            for fn in (phi_rs, reference_phi_rs):
                with pytest.raises(DomainError):
                    fn(spec)
        # a lower q^-2 is fine when an upper q^-1 ends the series first
        spec = SeriesSpec((0.5**-1, 0.3), (0.5**-2,), 0.7, ctx)
        assert hex_of(phi_rs(spec)) == hex_of(reference_phi_rs(spec))


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
    for k in range(qseries.MAX_TERMS):
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
                if ratio < 1.0 and tk <= qseries.TAIL_TOL and tk * ratio / (1.0 - ratio) <= qseries.TAIL_TOL:
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
        # Poisson-kernel shapes: 8W7(abt/q; t, b z1, b/z1, a z2, a/z2; q, t), in
        # Python floats and complexes (w87 reads numpy scalars as those)
        for q in (0.09, 0.25, 0.5, 0.81, 0.9025):
            for _ in range(12):
                a, b = rng.uniform(-0.9, 0.9, 2).tolist()
                t = float(rng.uniform(-0.8, 0.8))
                z1, z2 = np.exp(1j * rng.uniform(0.0, math.pi, 2)).tolist()
                cases.append((q, (a * b * t / q, t, b * z1, b / z1, a * z2, a / z2), t))
        # terminating through a = q^-2 and through b = q^-3
        cases.append((0.5, (0.5**-2, 0.3, -0.2, 0.1 + 0.2j, 0.1 - 0.2j, 0.4), 0.7))
        cases.append((0.5, (0.2, 0.5**-3, -0.25, 0.15, 0.12, -0.2), 0.35))
        # the term bound drops below TAIL_TOL by k = 2, but q a / b = 22.5 q
        # keeps the ratio test closed until q^k < 1/22.5 (k = 5 at q = 0.5)
        cases.append((0.5, (0.9, 0.02, 0.3, -0.4, 0.5 + 0.1j, 0.5 - 0.1j), 1e-9))
        cases.append((0.81, (0.6, 0.01, 0.2, 0.3, -0.3, 0.25), 1e-8 + 1e-9j))
        for q, params, z in cases:
            ctx = QContext(q)
            got = w87(*params, ctx, z)
            assert hex_of(got) == hex_of(reference_w87(*params, ctx, z)), (q, params, z)

    def test_lower_parameter_past_the_float_range(self) -> None:
        # q a / c = (0, -inf) for c = 1e-320 i: CPython's 1.0 - (q a / c) * 1.0
        # is (nan, inf), so term 1 and the sum are nan, not the 1 that a
        # finite real part would give
        ctx = QContext(0.5)
        args = (0.5**-2, 0.3, complex(0.0, 1e-320), 0.2 + 0.1j, 0.1, 0.4)
        assert cmath.isnan(reference_w87(*args, ctx, 0.5))
        with pytest.raises(ConvergenceError, match="not finite"):
            w87(*args, ctx, 0.5)

    def test_lower_parameter_not_finite_refused_before_summing(self, monkeypatch) -> None:
        # q a / b = 0.25 / 1e-320 is inf, q a / (1e-320 i) is (0, -inf); the
        # same for a lane that terminates (a = q^-2) and for phi_rs
        ctx = QContext(0.5)
        monkeypatch.setattr(qseries, "_factor_block", lambda *args: pytest.fail("summed"))
        calls = [
            lambda: w87(0.5, 1e-320, 0.3, -0.2, 0.1, 0.4, ctx, 0.5),
            lambda: w87(0.5, 1e-320j, 0.3, -0.2, 0.1, 0.4, ctx, 0.5),
            lambda: w87(0.5**-2, 1e-320, 0.3, -0.2, 0.1, 0.4, ctx, 0.5),
            lambda: phi_rs(SeriesSpec((0.3,), (math.inf,), 0.5, ctx)),
            lambda: phi_rs(SeriesSpec((0.5**-2,), (0.2, math.nan), 0.5, ctx)),
        ]
        for call in calls:
            with pytest.raises(ConvergenceError, match="lower parameter .* is not finite"):
                call()

    def test_upper_parameter_or_argument_not_finite_refused_before_summing(self, monkeypatch) -> None:
        # single calls, and batches whose other lanes are finite
        ctx = QContext(0.5)
        monkeypatch.setattr(qseries, "_factor_block", lambda *args: pytest.fail("summed"))
        lower = (0.3, -0.2, 0.1, 0.4)
        for bad in (math.inf, -math.inf, math.nan):
            calls = [
                ("upper parameter", lambda: w87(0.5, bad, *lower, ctx, 0.5)),
                ("argument", lambda: w87(0.5, 0.2, *lower, ctx, bad)),
                ("upper parameter", lambda: phi_rs(SeriesSpec((0.3, bad), (0.2,), 0.5, ctx))),
                ("argument", lambda: phi_rs(SeriesSpec((0.3,), (0.2,), bad, ctx))),
                ("upper parameter", lambda: w87(0.5, [0.2, bad, -0.1], *lower, ctx, 0.5)),
                ("argument", lambda: w87(0.5, 0.2, *lower, ctx, [0.5, 0.1, bad])),
            ]
            for slot, call in calls:
                with pytest.raises(ConvergenceError, match=f"{slot} .* is not finite"):
                    call()

    def test_divergent_raises_convergence_error(self) -> None:
        # |z| > 1: the terms grow until a modulus overflows with both parts finite
        params = (-0.0156, -0.5777 - 0.6945j, 0.7550, 0.4916 + 0.2663j, -0.2477, -0.2698 - 0.3682j)
        with pytest.raises(ConvergenceError, match="8W7"):
            w87(*params, QContext(0.8853), -0.7869 - 0.7192j)

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


class TestW87Batch:
    """An array w87 call sums every series in one batch, each bit for bit as
    a call of its own and as the scalar reference loop."""

    @staticmethod
    def poisson_lanes(q: float, rng: np.random.Generator, ts) -> list[tuple]:
        lanes = []
        for t in ts:
            a, b = rng.uniform(-0.9, 0.9, 2).tolist()
            z1, z2 = np.exp(1j * rng.uniform(0.0, math.pi, 2)).tolist()
            lanes.append((a * b * t / q, t, b * z1, b / z1, a * z2, a / z2, t))
        return lanes

    @staticmethod
    def check_batch(lanes: list[tuple], ctx: QContext) -> np.ndarray:
        *params, z = (np.array(col) for col in zip(*lanes))
        got = w87(*params, ctx, z)
        assert got.shape == (len(lanes),)
        for lane, value in zip(lanes, got.tolist()):
            alone = w87(*lane[:6], ctx, lane[6])
            assert type(alone) is complex
            want = hex_of(reference_w87(*lane[:6], ctx, lane[6]))
            assert hex_of(value) == hex_of(alone) == want, lane
        return got

    @pytest.mark.parametrize("q", [0.09, 0.5, 0.9025, 0.99])
    def test_lanes_of_very_different_length(self, q: float, rng: np.random.Generator) -> None:
        # 1 to several hundred terms; at q = 0.99 the |t| = 0.95 lane runs
        # through several blocks of _BLOCK // lanes terms
        ts = [1e-9, -0.02, 0.3, -0.55, 0.8, -0.95, 0.95, 0.7]
        self.check_batch(self.poisson_lanes(q, rng, ts), QContext(q))

    def test_terminating_and_real_lanes(self) -> None:
        # every slot a float: the sums' zero imaginary parts must match too;
        # lanes end through a = q^-2, through b = q^-3 (with |z| > 1, where
        # the tail test never holds), or by the tail test
        q = 0.5
        lanes = [
            (q**-2, 0.3, -0.2, 0.1, 0.15, 0.4, 0.7),
            (0.2, q**-3, -0.25, 0.15, 0.12, -0.2, -0.35),
            (0.2, q**-3, -0.25, 0.15, 0.12, -0.2, 2.5),
            (0.2, 0.3, -0.25, 0.15, 0.12, -0.2, -0.35),
            (0.9, 0.02, 0.3, -0.4, 0.5, 0.35, 1e-9),
            (-0.6, 0.5, 0.25, -0.35, 0.1, 0.2, 0.9),
        ]
        got = self.check_batch(lanes, QContext(q))
        assert [hex_of(v)[1] for v in got.tolist()] == ["0x0.0p+0"] * len(lanes)

    def test_scalar_arguments_broadcast(self, ctx: QContext) -> None:
        b = np.array([[0.3], [-0.2]])
        got = w87(0.2, b, -0.25, 0.15, 0.12, -0.2, ctx, [0.35, -0.5, 0.1])
        assert got.shape == (2, 3) and got.dtype == complex
        for i, j in np.ndindex(2, 3):
            want = w87(0.2, float(b[i, 0]), -0.25, 0.15, 0.12, -0.2, ctx, [0.35, -0.5, 0.1][j])
            assert hex_of(got[i, j]) == hex_of(want)

    def test_divergent_lane_refuses_the_batch(self, rng: np.random.Generator) -> None:
        ctx = QContext(0.8853)
        lanes = self.poisson_lanes(0.8853, rng, [0.3, -0.5])
        # |z| > 1: the terms grow until a modulus overflows with both parts finite
        lanes.append((-0.0156, -0.5777 - 0.6945j, 0.7550 + 0j, 0.4916 + 0.2663j, -0.2477 + 0j,
                      -0.2698 - 0.3682j, -0.7869 - 0.7192j))
        lanes = [(complex(l[0]), complex(l[1]), *l[2:6], complex(l[6])) for l in lanes]
        *params, z = (np.array(col) for col in zip(*lanes))
        with pytest.raises(ConvergenceError, match="8W7"):
            w87(*params, ctx, z)


class TestRealLanesAsComplex:
    """A w87 or phi_rs call with real arguments gives the same bits, zero
    imaginary part included, as the same call with every argument complex."""

    QS = (0.09, 0.3, 0.5, 0.81, 0.95, 0.99)

    @staticmethod
    def w87_lanes(q: float, rng: np.random.Generator) -> list[tuple]:
        lanes = []
        for _ in range(4):
            a, b, c, d, e, f, z = rng.uniform(-0.9, 0.9, 7).tolist()
            lanes.append((a, b, c, d, e, f, z))
            # Poisson-shaped at real points z1, z2 = +-1
            a, b, t = rng.uniform(-0.9, 0.9, 3).tolist()
            s1, s2 = rng.choice((-1.0, 1.0), 2).tolist()
            lanes.append((a * b * t / q, t, b * s1, b * s1, a * s2, a * s2, t))
            # terminating through a = q^-n or b = q^-n, |z| up to 3
            n = int(rng.integers(0, 8))
            a, b, c, d, e, f = rng.uniform(-0.9, 0.9, 6).tolist()
            z = float(rng.uniform(-3.0, 3.0))
            lanes.append((q**-n, b, c, d, e, f, z) if n % 2 else (a, q**-n, c, d, e, f, z))
        return lanes

    @pytest.mark.parametrize("q", QS)
    def test_w87_and_phi_rs(self, q: float, rng: np.random.Generator) -> None:
        ctx = QContext(q)
        for lane in self.w87_lanes(q, rng):
            as_complex = [complex(v) for v in lane]
            got = w87(*lane[:6], ctx, lane[6])
            assert hex_of(got) == hex_of(w87(*as_complex[:6], ctx, as_complex[6])), lane
            assert hex_of(got)[1] == "0x0.0p+0", lane
        for r, s in ((2, 1), (3, 2), (1, 1), (1, 0)):
            upper, lower = rng.uniform(-0.9, 0.9, r).tolist(), rng.uniform(-0.9, 0.9, s).tolist()
            if rng.integers(2):
                upper[0] = q ** -int(rng.integers(0, 6))
            z = float(rng.uniform(-0.9, 0.9))
            spec = SeriesSpec(upper, lower, z, ctx)
            cspec = SeriesSpec([complex(v) for v in upper], [complex(v) for v in lower], complex(z), ctx)
            assert hex_of(phi_rs(spec)) == hex_of(phi_rs(cspec)), spec


class TestNonFiniteParameters:
    """qpoch and the Al-Salam-Chihara recurrence refuse inf and nan with a
    QHaarError, and warn of nothing on the way."""

    @pytest.mark.parametrize("q", [1e-3, 0.5, 0.999])
    def test_qpoch_and_asc_raise(self, q: float) -> None:
        ctx = QContext(q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bad in (math.inf, -math.inf, math.nan):
                for k in (5, 0, math.inf):
                    with pytest.raises(ConvergenceError):
                        qpoch(bad, ctx, k)
                with pytest.raises(ConvergenceError):
                    qpoch([0.3, bad], ctx, [5, 2])
                with pytest.raises(ConvergenceError):
                    Factorials([bad], lambda v: 1.0, 5).evaluate(ctx)
                for a, b in ((bad, 0.2), (0.2, bad)):
                    with pytest.raises(DomainError):
                        orthopoly.asc(5, 0.3, a, b, ctx)
                    with pytest.raises(DomainError):
                        orthopoly.asc_all(5, [0.3, -0.4], a, b, ctx)
                with pytest.raises(DomainError):
                    orthopoly.asc_orthonormal(5, 0.3, 0.6, bad, ctx)


class TestOneTruncationPolicy:
    """Every q-series loop reads its term cap from qseries.MAX_TERMS: each
    runs at the default, and lowering that constant alone makes it raise."""

    LOOPS = {
        "qpoch": lambda: qpoch(0.3, QContext(0.99)),
        "sum_terms": lambda: phi_rs(SeriesSpec((0.3,), (0.2,), 0.9, QContext(0.9))),
        "q_integral": lambda: q_integral(lambda x: x, 0.0, 1.0, QContext(0.9)),
        "moment_apply": lambda: orthopoly.moment_apply(
            orthopoly.MomentFunctional("M", QContext(0.9)), [1.0]
        ),
        "spectral_trace": lambda: qsu2rep.spectral_trace(QContext(0.9), 0.5, [1.0]),
        "poisson_terms": lambda: orthopoly.asc_poisson_series(0.5, 0.3, -0.4, 0.3, -0.2, QContext(0.5)),
    }

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_lowered_max_terms_raises(self, loop: str, monkeypatch) -> None:
        call = self.LOOPS[loop]
        call()
        monkeypatch.setattr(qseries, "MAX_TERMS", 10)
        with pytest.raises(ConvergenceError):
            call()


class TestIdentityFormsBits:
    """The joined forms of ``identity bailey|poisson|mass`` and of
    ``bailey_raw_check`` give the same bits through the batch kernels as
    with every factorial from the scalar loop ``reference_qpoch`` and every
    8W7 sum from ``reference_w87``, one at a time."""

    QS = (0.05, 0.3, 0.5, 0.9, 0.93, 0.99)

    @staticmethod
    def scalar_qpoch(a, ctx: QContext, k=math.inf):
        a = np.asarray(a)
        ks = np.broadcast_to(np.asarray(k, dtype=float), a.shape)
        pairs = zip(a.ravel().tolist(), ks.ravel().tolist())
        vals = [reference_qpoch(x, ctx, kk) for x, kk in pairs]
        return np.array(vals, dtype=complex if a.dtype.kind == "c" else float).reshape(a.shape)

    @staticmethod
    def scalar_w87(a, b, c, d, e, f, ctx: QContext, z):
        arrays = np.broadcast_arrays(*map(np.asarray, (a, b, c, d, e, f, z)))
        lanes = zip(*(x.ravel().tolist() for x in arrays))
        vals = [reference_w87(*lane[:6], ctx, lane[6]) for lane in lanes]
        return np.array(vals, dtype=complex).reshape(arrays[0].shape)

    @staticmethod
    def bits(q: float) -> list:
        """The exit code and the hex of every float in the rows of each
        command, then the hex of each bailey_raw_check residual (or the
        error it raises)."""
        out = []
        for target in ("bailey", "poisson", "mass"):
            text = io.StringIO()
            with redirect_stdout(text), redirect_stderr(io.StringIO()):
                code = cli.main(["identity", target, "--q", repr(q)])
            report = json.loads(text.getvalue() or "{}")
            numbers = [
                v.hex() for row in report.get("rows", []) for v in row.values() if type(v) is float
            ]
            out.append((target, code, numbers))
        cfg = cli.RunConfig(q=q)
        try:
            raw = haarverify.bailey_raw_check(cli.BAILEY_THETAS, cfg.tau, cfg.sigma, QContext(q))
            out.append([v.hex() for v in raw.tolist()])
        except (ConvergenceError, DomainError) as exc:
            out.append(type(exc).__name__)
        return out

    @pytest.mark.parametrize("q", QS)
    def test_batch_kernels_match_scalar_loops(self, q: float, monkeypatch) -> None:
        batch = self.bits(q)
        monkeypatch.setattr(qseries, "qpoch", self.scalar_qpoch)
        monkeypatch.setattr(qseries, "w87", self.scalar_w87)
        assert self.bits(q) == batch
        # every command printed rows somewhere on the grid
        assert any(numbers for _, _, numbers in batch[:3])


class TestW87Oracle:
    """w87 against a 40-digit sum of the same series, in the identity
    commands' argument pattern (a, b and z real, c, d and e, f conjugate
    pairs): the error stays within K eps sum |t_k|, the rounding of K terms
    of a float sum (K counts the terms down to 1e-32, at least as many as
    w87 sums), plus the TAIL_TOL the stopping test leaves out."""

    QS = (0.85, 0.9, 0.95, 0.98)

    @staticmethod
    def terms(lane: tuple, q: float) -> list:
        a, b, c, d, e, f, z = (mp.mpmathify(v) for v in lane)
        q = mp.mpf(q)
        lower = [q * a / p for p in (b, c, d, e, f)]
        out, t, k = [], mp.mpf(1), 0
        while True:
            out.append(t * (1 - a * q ** (2 * k)) / (1 - a))
            if k > 8 and abs(out[-1]) < mp.mpf(10) ** -32:
                return out
            num = z * (1 - a * q**k)
            for p in (b, c, d, e, f):
                num *= 1 - p * q**k
            den = 1 - q ** (k + 1)
            for m in lower:
                den *= 1 - m * q**k
            t, k = t * num / den, k + 1

    @staticmethod
    def lanes(q: float, rng: np.random.Generator) -> list[tuple]:
        lanes = []
        for _ in range(6):
            # Poisson kernel: 8W7(abt/q; t, b z1, b/z1, a z2, a/z2; q, t)
            a, b = rng.uniform(-0.9, 0.9, 2).tolist()
            t = float(rng.uniform(-0.9, 0.9))
            z1, z2 = np.exp(1j * rng.uniform(0.0, math.pi, 2)).tolist()
            lanes.append((a * b * t / q, t, b * z1, b / z1, a * z2, a / z2, t))
        for n in (1, 2, 3):
            # near termination: b within 1e-9 of q^-n, so the terms past
            # k = n carry a factor of about 1e-9 (1 - b q^n, which floats
            # hold to eps only, so z keeps those terms small); every
            # |q a / p| < 1
            c = 0.6 * complex(math.cos(0.4 * n), math.sin(0.4 * n))
            e = 0.5 * complex(math.cos(1.1 * n), -math.sin(1.1 * n))
            lanes.append((-0.4, q**-n * (1.0 + 1e-9), c, c.conjugate(), e, e.conjugate(), 0.05))
        return lanes

    @pytest.mark.parametrize("q", QS)
    def test_within_rounding_of_the_summed_terms(self, q: float, rng: np.random.Generator) -> None:
        ctx = QContext(q)
        lanes = self.lanes(q, rng)
        *params, z = (np.array(col) for col in zip(*lanes))
        got = w87(*params, ctx, z).tolist()
        eps = sys.float_info.epsilon
        for lane, value in zip(lanes, got):
            terms = self.terms(lane, q)
            exact = complex(mp.fsum(terms))
            scale = float(mp.fsum(abs(t) for t in terms))
            bound = len(terms) * eps * scale + qseries.TAIL_TOL
            assert abs(value - exact) <= bound, (lane, value, exact, abs(value - exact) / bound)
            assert hex_of(value) == hex_of(w87(*lane[:6], ctx, lane[6]))


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

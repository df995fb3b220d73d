"""Truncated Jacobi operators: moments, Gauss rules, builders, truncation policy."""
from __future__ import annotations

import collections
import concurrent.futures
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhaar import (
    AWParams,
    ConvergenceError,
    DomainError,
    JacobiCoeffs,
    QContext,
    TruncationPolicyError,
    aw_integrate,
    aw_jacobi,
    aw_measure,
    check_truncation,
    min_truncation,
    orthonormal_polys,
)
from qhaar.haarverify import _thm6_jacobi, thm6_params
from qhaar.qsu2rep import SphericalParams, _Band, _band_moments, build_rep, element
from qhaar.spectral import _READ_AHEAD, _jacobi_moments, _offdiag_sqrt


def dense(coeffs: JacobiCoeffs, size: int) -> np.ndarray:
    """The leading ``size`` x ``size`` block of ``coeffs`` as a dense matrix."""
    d, e = coeffs.arrays(size)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def gauss_rule(coeffs: JacobiCoeffs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss rule of ``coeffs`` (Golub-Welsch).

    The eigenvalues of the leading n x n block and the squared first row of
    its eigenvectors; exact for polynomials of degree <= 2n - 1.
    """
    nodes, vecs = np.linalg.eigh(dense(coeffs, n))
    return nodes, vecs[0] ** 2


def jacobi_band(coeffs: JacobiCoeffs, size: int) -> _Band:
    """The leading ``size`` x ``size`` block of ``coeffs`` in band storage."""
    d, e = coeffs.arrays(size)
    return _Band({-1: np.append(0.0, e), 0: d, 1: np.append(e, 0.0)})


def cocentral_coeffs(ctx: QContext) -> JacobiCoeffs:
    # halved creation ladder: d_m = 0, (m, m+1) entry sqrt(1 - q^{2m+2}) / 2
    q = ctx.q
    return JacobiCoeffs(
        diag=lambda m: 0.0,
        offdiag=lambda m: 0.5 * math.sqrt(1.0 - q ** (2 * m + 2)),
    )


class TestTruncate:
    def test_one_by_one(self) -> None:
        coeffs = JacobiCoeffs(diag=lambda m: 3.25, offdiag=lambda m: 1.0)
        m = dense(coeffs, 1)
        assert m.shape == (1, 1)
        assert m[0, 0] == 3.25

    def test_two_by_two_cocentral(self, ctx: QContext) -> None:
        m = dense(cocentral_coeffs(ctx), 2)
        off = 0.5 * math.sqrt(1 - ctx.q**2)
        assert np.allclose(m, [[0.0, off], [off, 0.0]], atol=1e-15)
        assert m[0, 1] == pytest.approx(0.4330127018922193, abs=1e-15)

    def test_chebyshev_three_nodes(self) -> None:
        # constant offdiag 1/2 is the Chebyshev-U operator; the 3x3
        # truncation has eigenvalues {-1/sqrt2, 0, 1/sqrt2}
        coeffs = JacobiCoeffs(diag=lambda m: 0.0, offdiag=lambda m: 0.5)
        nodes, _ = gauss_rule(coeffs, 3)
        assert np.allclose(nodes, [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], atol=1e-14)

    def test_arrays_match_dense(self, ctx: QContext) -> None:
        coeffs = cocentral_coeffs(ctx)
        diag, off = coeffs.arrays(6)
        m = dense(coeffs, 6)
        assert np.allclose(np.diag(m), diag)
        assert np.allclose(np.diag(m, 1), off)

    def test_zero_offdiagonal_rejected(self) -> None:
        coeffs = JacobiCoeffs(diag=lambda m: 0.0, offdiag=lambda m: float(m))
        with pytest.raises(DomainError):
            coeffs.arrays(3)


class TestMemoizedEntries:
    """JacobiCoeffs evaluates each recurrence entry once and keeps nothing that failed."""

    @staticmethod
    def counting() -> tuple[JacobiCoeffs, collections.Counter]:
        calls = collections.Counter()

        def diag(m: int) -> float:
            calls["diag", m] += 1
            return 0.25 * m

        def offdiag(m: int) -> float:
            calls["offdiag", m] += 1
            return 1.0 + m

        return JacobiCoeffs(diag=diag, offdiag=offdiag), calls

    def test_each_index_evaluated_once(self) -> None:
        coeffs, calls = self.counting()
        for size in (*range(1, 8), 3):
            d, e = coeffs.arrays(size)
            assert d.tolist() == [0.25 * m for m in range(size)]
            assert e.tolist() == [1.0 + m for m in range(size - 1)]
        assert set(calls.values()) == {1}
        assert sorted(calls) == sorted(
            [("diag", m) for m in range(7)] + [("offdiag", m) for m in range(6)]
        )

    def test_arrays_are_fresh_copies(self) -> None:
        coeffs, _ = self.counting()
        d, e = coeffs.arrays(4)
        d[0] = e[0] = 7.0
        assert coeffs.arrays(4)[0][0] == 0.0 and coeffs.arrays(4)[1][0] == 1.0

    def test_threads_get_fresh_build(self, ctx2: QContext) -> None:
        params = AWParams(0.3, -0.6, 0.5, 0.1, ctx2)
        shared = aw_jacobi(params)
        sizes = [int(n) for n in np.random.default_rng(19).integers(1, 30, 64)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(shared.arrays, sizes))
        for size, (d, e) in zip(sizes, got):
            want_d, want_e = aw_jacobi(params).arrays(size)
            assert d.tobytes().hex() == want_d.tobytes().hex()
            assert e.tobytes().hex() == want_e.tobytes().hex()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: JacobiCoeffs(diag=lambda m: 0.0, offdiag=lambda m: 0.5),  # the semicircle
            lambda: aw_jacobi(AWParams(0.3, -0.6, 0.5, 0.1, QContext(0.25))),
        ],
    )
    def test_threads_get_same_moments(self, make) -> None:
        shared = make()
        degrees = [int(n) for n in np.random.default_rng(23).integers(0, 67, 64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads inside a pass
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda d: _jacobi_moments(shared, d), degrees, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for degree, moments in zip(degrees, got):
            want = _jacobi_moments(make(), degree)
            assert [float.hex(m) for m in moments] == [float.hex(m) for m in want], degree
        # whichever swap came last, the kept state is one pass's: its moments and v agree
        d, e, moments, v = shared._entries
        assert 2 * len(v) - 1 <= len(moments) <= 2 * len(v) <= 2 * len(d)
        assert list(moments) == _jacobi_moments(make(), len(moments) - 1)

    def test_raising_growth_keeps_moments(self) -> None:
        def offdiag(m: int) -> float:
            if m == 4:
                raise ZeroDivisionError("e_4")
            return 0.5

        coeffs = JacobiCoeffs(diag=lambda m: 0.0, offdiag=offdiag)
        want = _jacobi_moments(coeffs, 7)
        state = coeffs._entries
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="e_4"):
                _jacobi_moments(coeffs, 12)
        assert coeffs._entries is state
        assert _jacobi_moments(coeffs, 7) == want

    def test_moments_kept_by_arrays(self) -> None:
        # growing the entries keeps the moments and the Krylov vector
        coeffs, calls = self.counting()
        want = _jacobi_moments(coeffs, 4)
        moments, v = coeffs._entries[2:]
        coeffs.arrays(9)
        assert coeffs._entries[2] is moments and coeffs._entries[3] is v
        assert _jacobi_moments(coeffs, 4) == want
        assert set(calls.values()) == {1}

    def test_raising_entry_raises_again(self) -> None:
        def offdiag(m: int) -> float:
            if m == 4:
                raise ZeroDivisionError("e_4")
            return 0.5

        coeffs = JacobiCoeffs(diag=lambda m: 0.0, offdiag=offdiag)
        assert coeffs.arrays(3)[1].tolist() == [0.5, 0.5]
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="e_4"):
                coeffs.arrays(7)
        assert coeffs.arrays(5)[1].tolist() == [0.5] * 4

    def test_zero_offdiagonal_refused_again(self) -> None:
        coeffs = JacobiCoeffs(diag=lambda m: 0.0, offdiag=lambda m: float(m - 2))
        for _ in range(2):
            with pytest.raises(DomainError, match="nonzero"):
                coeffs.arrays(4)
        assert coeffs.arrays(2)[1].tolist() == [-2.0]


class TestSpectralData:
    """The Gauss rule of a truncation is its spectral data at e_0."""

    def test_two_by_two_weights(self, ctx: QContext) -> None:
        _, weights = gauss_rule(cocentral_coeffs(ctx), 2)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-14)

    def test_weight_normalization_and_mean(self) -> None:
        coeffs = JacobiCoeffs(diag=lambda m: 0.3 * 0.7**m, offdiag=lambda m: 0.4)
        nodes, weights = gauss_rule(coeffs, 12)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert (weights * nodes).sum() == pytest.approx(coeffs.diag(0), abs=1e-13)

    def test_weights_nonnegative_nodes_increasing(self, ctx: QContext) -> None:
        nodes, weights = gauss_rule(cocentral_coeffs(ctx), 40)
        assert np.all(weights >= -1e-15)
        assert np.all(np.diff(nodes) > 0)

    def test_cocentral_moments_against_quadrature_measure(self, ctx: QContext, ctx2: QContext) -> None:
        # low moments of the size-80 spectral measure reproduce the continuum
        # weight with all four parameters zero
        nodes, weights = gauss_rule(cocentral_coeffs(ctx), 80)
        spec = aw_measure(AWParams(0.0, 0.0, 0.0, 0.0, ctx2))
        for m in range(5):
            got = float((weights * nodes**m).sum())
            want = aw_integrate(spec, (0.0,) * m + (1.0,))
            assert got == pytest.approx(want, abs=1e-8)

    def test_even_moments_closed_values(self, ctx2: QContext) -> None:
        spec = aw_measure(AWParams(0.0, 0.0, 0.0, 0.0, ctx2))
        assert aw_integrate(spec, (0.0, 0.0, 1.0)) == pytest.approx(3 / 16, abs=1e-13)
        assert aw_integrate(spec, (0.0, 0.0, 0.0, 0.0, 1.0)) == pytest.approx(81 / 1024, abs=1e-13)

    def test_spectral_theorem_functional_calculus(self, ctx: QContext) -> None:
        # <f(T) e0, e0> = sum_j w_j f(x_j) for analytic f
        coeffs = cocentral_coeffs(ctx)
        size = 30
        m = dense(coeffs, size)
        nodes, weights = gauss_rule(coeffs, size)
        vals, vecs = np.linalg.eigh(m)
        e0 = np.zeros(size)
        e0[0] = 1.0
        for f in (np.exp, np.sin, lambda x: 1.0 / (2.0 + x)):
            lhs = vecs @ (f(vals) * (vecs.T @ e0))
            assert lhs[0] == pytest.approx(float((weights * f(nodes)).sum()), abs=1e-11)

    def test_eigenvalue_interlacing(self, ctx: QContext) -> None:
        coeffs = cocentral_coeffs(ctx)
        for size in (5, 11):
            lo, _ = gauss_rule(coeffs, size)
            hi, _ = gauss_rule(coeffs, size + 1)
            assert np.all(hi[:-1] < lo + 1e-14)
            assert np.all(lo < hi[1:] + 1e-14)

    @given(size=st.integers(2, 18), scale=st.floats(0.1, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_interlacing_property(self, size: int, scale: float) -> None:
        coeffs = JacobiCoeffs(
            diag=lambda m: 0.2 * math.sin(1.7 * m),
            offdiag=lambda m: scale / (m + 1.0),
        )
        lo, _ = gauss_rule(coeffs, size - 1)
        hi, _ = gauss_rule(coeffs, size)
        assert np.all(hi[:-1] <= lo + 1e-12)
        assert np.all(lo <= hi[1:] + 1e-12)

    def test_extreme_eigenvalues_of_rep_element(self, ctx: QContext) -> None:
        # spectrum of the size-200 rho_{tau,inf} truncation approaches both
        # geometric ladders; check the six extreme nodes
        tau = 0.4
        q = ctx.q
        rep = build_rep(ctx, 0.0, 200)
        vals = np.linalg.eigvalsh(element(rep, "rho_tau_inf", SphericalParams(tau=tau)))
        assert np.allclose(vals[:3], [-1.0, -(q**2), -(q**4)], atol=1e-6)
        assert np.allclose(
            vals[-3:], [q ** (2 * tau + 4), q ** (2 * tau + 2), q ** (2 * tau)], atol=1e-6
        )

    def test_exact_to_degree_two_n_minus_one(self, ctx: QContext) -> None:
        # an n-point rule has the moments of every larger truncation through
        # degree 2n - 1, and misses degree 2n
        coeffs = cocentral_coeffs(ctx)
        ref_nodes, ref_weights = gauss_rule(coeffs, 20)
        for n in (1, 3, 6):
            nodes, weights = gauss_rule(coeffs, n)
            for k in range(2 * n + 1):
                got = float(weights @ nodes**k)
                want = float(ref_weights @ ref_nodes**k)
                if k < 2 * n:
                    assert got == pytest.approx(want, abs=1e-14)
                else:
                    assert abs(got - want) > 1e-6


class TestPolyDiag:
    """Band moments of J, read one diagonal entry of p(J) at a time, against the dense p(J)."""

    @pytest.mark.parametrize("size", [3, 20])
    def test_matches_dense_horner(self, ctx: QContext, ctx2: QContext, size: int) -> None:
        rng = np.random.default_rng(7)
        jacobis = (cocentral_coeffs(ctx), aw_jacobi(AWParams(1.5, -0.3, 0.2, 0.1, ctx2)))
        for jacobi in jacobis:
            J = dense(jacobi, size)
            for degree in (0, 1, 2, 5, 9):
                coeffs = rng.standard_normal(degree + 1)
                want = np.zeros((size, size))
                for c in coeffs[::-1]:
                    want = c * np.eye(size) + J @ want
                band = jacobi_band(jacobi, size)
                # the weight e_n picks [J^k]_nn out of sum_m w_m [J^k]_mm
                got = [_band_moments(band, degree, w, 1)[0].real @ coeffs for w in np.eye(size)]
                np.testing.assert_allclose(got, np.diag(want), rtol=1e-13, atol=1e-13)

    def test_overflow_refused(self) -> None:
        # the moments come out inf, without a warning, for the caller to refuse
        band = jacobi_band(JacobiCoeffs(diag=lambda m: 1e200, offdiag=lambda m: 1.0), 4)
        moments = _band_moments(band, 2, np.ones(4), 1)
        assert np.isfinite(moments[0, :2]).all() and np.isinf(moments[0, 2])


class TestJacobiMoments:
    """e_0^T J^k e_0 off the leading rows of J, as a Gauss rule of as many nodes gives them."""

    def test_matches_gauss_rule(self, ctx: QContext, ctx2: QContext) -> None:
        jacobis = (cocentral_coeffs(ctx), aw_jacobi(AWParams(1.5, -0.3, 0.2, 0.1, ctx2)))
        for jacobi in jacobis:
            for degree in (0, 1, 2, 5, 9, 24):
                nodes, weights = gauss_rule(jacobi, degree // 2 + 1)
                want = [float(weights @ nodes**k) for k in range(degree + 1)]
                got = _jacobi_moments(jacobi, degree)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("degree", [0, 1, 2, 7, 12])
    def test_reads_leading_rows(self, degree: int) -> None:
        rows = []
        jacobi = JacobiCoeffs(diag=lambda m: rows.append(m) or 0.1, offdiag=lambda m: 0.5)
        _jacobi_moments(jacobi, degree)
        assert rows == list(range(degree // 2 + 1))

    def test_continuation_reads_ahead(self) -> None:
        # the first ask reads its own rows; a later miss continues the pass
        # _READ_AHEAD = 12 degrees past the degree it asks
        def fresh() -> JacobiCoeffs:
            return JacobiCoeffs(diag=lambda m: 0.1, offdiag=lambda m: 0.5)

        rows = []
        jacobi = JacobiCoeffs(diag=lambda m: rows.append(m) or 0.1, offdiag=lambda m: 0.5)
        assert _READ_AHEAD == 12
        _jacobi_moments(jacobi, 2)
        assert rows == [0, 1]
        assert _jacobi_moments(jacobi, 3) == _jacobi_moments(fresh(), 3)
        assert rows == list(range(8)) and len(jacobi._entries[2]) == 16
        assert _jacobi_moments(jacobi, 15) == _jacobi_moments(fresh(), 15)
        assert rows == list(range(8))

    @pytest.mark.parametrize(
        "entry, error",
        [
            ("diag", ZeroDivisionError("d_6")),
            ("diag", DomainError("d_6")),
            ("offdiag", OverflowError("e_5")),
            ("offdiag", DomainError("e_5")),
            ("offdiag", None),  # e_5 = 0
        ],
    )
    def test_refused_entry_ends_read_ahead(self, entry: str, error) -> None:
        # row 6 (d_6 or e_5) fails past the asked rows: the continuation keeps
        # rows 0..5 and the moments they give, through x^11; asked, row 6 raises
        def diag(m: int) -> float:
            if entry == "diag" and m == 6:
                raise error
            return 0.1 * m

        def offdiag(m: int) -> float:
            if entry == "offdiag" and m == 5:
                if error is None:
                    return 0.0
                raise error
            return 0.5 + 0.1 * m

        def fresh() -> JacobiCoeffs:
            return JacobiCoeffs(diag=lambda m: 0.1 * m, offdiag=lambda m: 0.5 + 0.1 * m)

        jacobi = JacobiCoeffs(diag=diag, offdiag=offdiag)
        _jacobi_moments(jacobi, 0)
        assert _jacobi_moments(jacobi, 4) == _jacobi_moments(fresh(), 4)
        state = jacobi._entries
        d, e, moments, _ = state
        assert (len(d), len(e), list(moments)) == (6, 5, _jacobi_moments(fresh(), 11))
        assert _jacobi_moments(jacobi, 11) == list(moments)
        for _ in range(2):
            with pytest.raises(type(error) if error else DomainError):
                _jacobi_moments(jacobi, 12)
        assert jacobi._entries is state


class TestJacobiBuilders:
    @pytest.mark.parametrize("e2", [0.0, -0.25, math.nan, math.inf])
    def test_offdiag_square_refused(self, e2: float) -> None:
        with pytest.raises(DomainError, match="finite and positive"):
            _offdiag_sqrt(e2, 3)

    def test_offdiag_sqrt(self) -> None:
        assert _offdiag_sqrt(0.25, 0) == 0.5

    def test_aw_overflowing_square_refused(self) -> None:
        # 1/a overflows for a subnormal parameter: e_0^2 is inf, not a NaN row
        params = AWParams(1e-320, 1e-320, 0.0, 0.0, QContext(0.25))
        with pytest.raises(DomainError, match="e_0"):
            gauss_rule(aw_jacobi(params), 3)

    def test_aw_all_zero_refused(self, ctx2: QContext) -> None:
        with pytest.raises(DomainError, match="nonzero"):
            aw_jacobi(AWParams(0.0, 0.0, 0.0, 0.0, ctx2))

    def test_aw_parameter_order_irrelevant(self, ctx2: QContext) -> None:
        vals = (0.3, -0.6, 0.5, 0.1)
        ref = gauss_rule(aw_jacobi(AWParams(*vals, ctx2)), 5)
        for perm in ((0.1, 0.5, -0.6, 0.3), (-0.6, 0.1, 0.3, 0.5)):
            got = gauss_rule(aw_jacobi(AWParams(*perm, ctx2)), 5)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize(
        "build, want",
        [
            (
                lambda: aw_jacobi(thm6_params(0.4, 1.5, QContext(0.5))),
                (["-0x1.1caca80ed4cf4p-2", "-0x1.0bedcb5940c38p-3", "-0x1.49c2355a28530p-5",
                  "-0x1.5d01575872680p-7", "-0x1.621cd58074100p-9", "-0x1.6368bbca37c00p-11",
                  "-0x1.63bc070910000p-13", "-0x1.63d0def8a0000p-15"],
                 ["0x1.92d5473976b5bp-1", "0x1.2c2660b0f1404p-1", "0x1.0c5330657fd43p-1",
                  "0x1.032f02e22efb2p-1", "0x1.00cd804ceb7e7p-1", "0x1.00337c84c1cbfp-1",
                  "0x1.000ce0ea322ebp-1", "0x1.0003385724551p-1"]),
            ),
            (
                lambda: _thm6_jacobi(0.4, 1.5, QContext(0.5)),
                (["-0x1.1caca80ed4cf3p-2", "-0x1.0bedcb5940c30p-3", "-0x1.49c2355a28528p-5",
                  "-0x1.5d01575872654p-7", "-0x1.621cd5807411dp-9", "-0x1.6368bbca37e26p-11",
                  "-0x1.63bc07090e4c2p-13", "-0x1.63d0def89fe46p-15"],
                 ["0x1.92d5473976b5cp-1", "0x1.2c2660b0f1405p-1", "0x1.0c5330657fd44p-1",
                  "0x1.032f02e22efb2p-1", "0x1.00cd804ceb7e7p-1", "0x1.00337c84c1cbfp-1",
                  "0x1.000ce0ea322ebp-1", "0x1.0003385724551p-1"]),
            ),
            (
                lambda: _thm6_jacobi(0.0, 2.1, QContext(0.066)),
                (["-0x0.0p+0"] * 8,
                 ["0x1.3dd99b7964ff9p+3", "0x1.a65efedbaaf19p-1", "0x1.00f55ca686b6dp-1",
                  "0x1.0001121f3500ap-1", "0x1.00000131af895p-1", "0x1.0000000154e19p-1",
                  "0x1.00000000017c2p-1", "0x1.000000000001ap-1"]),
            ),
        ],
        ids=["thm6", "thm6-closed-form", "thm6-closed-form-tau0"],
    )
    def test_leading_entries_pinned(self, build, want) -> None:
        # the leading (d_n, e_n) of thm6's Askey-Wilson matrix, bit for bit:
        # through aw_jacobi, and in the closed form the measure route reads,
        # within 1.7e-16 of 50 digits at q = 0.5 and exactly 0 on the diagonal at tau = 0
        d, e = build().arrays(9)
        assert ([x.hex() for x in d[:8].tolist()], [x.hex() for x in e.tolist()]) == want


class TestOrthonormalPolys:
    def test_degree_zero_and_one(self) -> None:
        coeffs = JacobiCoeffs(diag=lambda m: 0.3 + 0.1 * m, offdiag=lambda m: 0.5 + 0.1 * m)
        x = np.array([0.2, -0.4, 1.1])
        vals = orthonormal_polys(coeffs, 3, x)
        assert np.allclose(vals[0], 1.0)
        assert np.allclose(vals[1], (x - coeffs.diag(0)) / coeffs.offdiag(0))

    def test_quadrature_exactness(self, ctx: QContext) -> None:
        # Gauss rule from the size-60 truncation integrates p_n p_m exactly
        coeffs = cocentral_coeffs(ctx)
        nodes, weights = gauss_rule(coeffs, 60)
        vals = orthonormal_polys(coeffs, 30, nodes)
        gram = (vals * weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(31))) < 1e-9

    def test_three_term_recurrence_residual(self, ctx: QContext) -> None:
        coeffs = cocentral_coeffs(ctx)
        x = np.linspace(-0.9, 0.9, 7)
        vals = orthonormal_polys(coeffs, 10, x)
        for m in range(1, 10):
            resid = (
                x * vals[m]
                - coeffs.offdiag(m) * vals[m + 1]
                - coeffs.diag(m) * vals[m]
                - coeffs.offdiag(m - 1) * vals[m - 1]
            )
            assert np.max(np.abs(resid)) < 1e-12


class TestTruncationPolicy:
    def test_formula(self) -> None:
        for q, degree, tol in ((0.5, 6, 1e-7), (0.3, 4, 1e-9), (0.8, 6, 1e-7)):
            got = min_truncation(degree, tol, q)
            want = degree + math.ceil(math.log(tol) / (2 * math.log(q)))
            assert got == want

    def test_frozen_examples(self) -> None:
        assert min_truncation(6, 1e-7, 0.99) == 808
        assert min_truncation(4, 1e-9, 0.99) == 1035

    def test_check_passes_at_minimum(self) -> None:
        needed = min_truncation(6, 1e-7, 0.5)
        check_truncation(needed, 6, 1e-7, 0.5)

    def test_check_raises_below_minimum(self) -> None:
        needed = min_truncation(6, 1e-7, 0.5)
        with pytest.raises(TruncationPolicyError, match="policy minimum"):
            check_truncation(needed - 1, 6, 1e-7, 0.5)

    def test_policy_error_is_convergence_error(self) -> None:
        assert issubclass(TruncationPolicyError, ConvergenceError)

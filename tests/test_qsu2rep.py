"""Truncated generator representation, Haar trace, and the spectral ladder basis."""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhaar import (
    DomainError,
    QContext,
    SphericalParams,
    TruncationPolicyError,
    VerifyConfig,
    build_rep,
    d_coeff,
    eigen_basis,
    eigvec_components,
    eigvec_norm_sq,
    eigvec_poly,
    element,
    haar_trace,
    haar_trace_samples,
    monomials,
    op_D,
    qpoch,
    spectral_trace,
    verify,
    verify_structure,
)
from qhaar import qsu2rep

TAU = 0.4
SIGMA = 1.5


class TestBuildRep:
    def test_ladder_entries(self, ctx: QContext) -> None:
        rep = build_rep(ctx, 0.0, 10)
        # <A e_1, e_0> = sqrt(1 - q^2)
        assert rep.alpha[0, 1] == pytest.approx(math.sqrt(1 - ctx.q**2), rel=1e-15)

    def test_diagonal_phase(self, ctx: QContext) -> None:
        rep = build_rep(ctx, math.pi / 3, 10)
        want = np.exp(1j * math.pi / 3) * ctx.q**3
        assert rep.gamma[3, 3] == pytest.approx(want, rel=1e-15)

    def test_defining_relation_interior(self, ctx: QContext) -> None:
        rep = build_rep(ctx, 0.7, 30)
        A, C = rep.alpha, rep.gamma
        s = (A.conj().T @ A + C.conj().T @ C).real
        # exact in every row: the dropped column only feeds row size+1
        assert np.max(np.abs(s - np.eye(31))) < 1e-14
        t = (A @ A.conj().T + ctx.q**2 * (C.conj().T @ C)).real
        assert np.max(np.abs((t - np.eye(31))[:30, :30])) < 1e-14

    def test_size_validation(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            build_rep(ctx, 0.0, 0)


class TestElement:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.1])
    @pytest.mark.parametrize("size", [1, 2, 3, 40])
    def test_all_hermitian(self, q, phi, size) -> None:
        # the formulas are Hermitian on the truncation itself; nothing symmetrizes them
        rep = build_rep(QContext(q), phi, size)
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        for name in ("cocentral", "gamma_star_gamma", "rho_tau_inf", "rho_tau_sigma"):
            M = element(rep, name, params)
            assert np.max(np.abs(M - M.conj().T)) < 1e-14

    def test_cocentral_is_halved_ladder(self, ctx: QContext) -> None:
        rep = build_rep(ctx, 0.0, 12)
        M = element(rep, "cocentral")
        q = ctx.q
        for n in range(11):
            assert M[n, n + 1] == pytest.approx(0.5 * math.sqrt(1 - q ** (2 * n + 2)), rel=1e-14)
        assert np.max(np.abs(np.diag(M))) < 1e-15

    def test_gamma_star_gamma_diagonal(self, ctx: QContext) -> None:
        rep = build_rep(ctx, 1.1, 12)
        M = element(rep, "gamma_star_gamma")
        assert np.allclose(M, np.diag(ctx.q ** (2.0 * np.arange(13))), atol=1e-15)

    def test_spectrum_contains_both_ladder_heads(self, ctx: QContext) -> None:
        rep = build_rep(ctx, 0.0, 200)
        vals = np.linalg.eigvalsh(element(rep, "rho_tau_inf", SphericalParams(tau=TAU)))
        q = ctx.q
        assert np.min(np.abs(vals - (-1.0))) < 1e-8
        assert np.min(np.abs(vals - q ** (2 * TAU))) < 1e-8

    def test_rescaled_two_parameter_limit(self, ctx: QContext) -> None:
        # 2 q^{sigma+tau-1} rho_tau_sigma -> rho_tau_inf at rate O(q^sigma)
        rep = build_rep(ctx, 0.4, 60)
        inf = element(rep, "rho_tau_inf", SphericalParams(tau=TAU))
        q = ctx.q
        devs = []
        for sigma in (4.0, 6.0, 8.0):
            R = element(rep, "rho_tau_sigma", SphericalParams(tau=TAU, sigma=sigma))
            devs.append(float(np.max(np.abs((2 * q ** (sigma + TAU - 1) * R - inf)[:50, :50]))))
        assert devs[0] > devs[1] > devs[2]
        # each sigma step of 2 shrinks the gap by about q^2
        assert devs[2] < devs[0] * ctx.q**3
        assert devs[2] < 3.0 * q**8

    def test_unknown_and_missing_params(self, ctx: QContext) -> None:
        rep = build_rep(ctx, 0.0, 5)
        with pytest.raises(DomainError):
            element(rep, "nope")
        with pytest.raises(DomainError):
            element(rep, "rho_tau_inf")
        with pytest.raises(DomainError):
            element(rep, "rho_tau_sigma", SphericalParams(tau=TAU))


class TestOpD:
    def test_entries_and_trace(self, ctx: QContext) -> None:
        d = op_D(ctx, 30)
        q = ctx.q
        assert d[0] == 1.0
        assert d[2] == pytest.approx(q**4, rel=1e-15)
        assert d.sum() == pytest.approx((1 - q ** (2 * 31)) / (1 - q * q), rel=1e-14)


class TestHaarTrace:
    def test_unit_normalization(self, ctx: QContext) -> None:
        assert haar_trace(ctx, "cocentral", [1.0], 60) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_star_gamma_mean(self, ctx: QContext) -> None:
        # h(g*g) = (1 - q^2) sum q^{4n} = 1 / (1 + q^2)
        got = haar_trace(ctx, "gamma_star_gamma", [0.0, 1.0], 80)
        assert got == pytest.approx(1.0 / (1.0 + ctx.q**2), abs=1e-12)

    def test_cocentral_mean_vanishes(self, ctx: QContext) -> None:
        assert haar_trace(ctx, "cocentral", [0.0, 1.0], 80) == pytest.approx(0.0, abs=1e-12)

    def test_truncation_policy_trip(self, ctx: QContext) -> None:
        coeffs = [0.0] * 7 + [1.0]
        with pytest.raises(TruncationPolicyError):
            haar_trace(ctx, "cocentral", coeffs, 10)

    def test_truncation_message_names_element_degree_and_reach(self, ctx: QContext) -> None:
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        with pytest.raises(
            TruncationPolicyError,
            match=r"policy minimum 24 for rho_tau_sigma at degree 6 \(reach 2\)",
        ):
            haar_trace(ctx, "rho_tau_sigma", [0.0] * 6 + [1.0], 20, params, tol=1e-7)

    def test_coarse_phase_grid_refused(self, ctx: QContext) -> None:
        # lcm(3, 2) = 6 does not exceed 2 * 6: the e^{6 i phi} harmonic aliases
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        coeffs = [0.0] * 6 + [1.0]
        with pytest.raises(DomainError, match="phase grid of 3 points"):
            haar_trace(ctx, "rho_tau_sigma", coeffs, 80, params, phi_count=3)
        # the per-angle samples stay available, and their average is off
        coarse = np.mean(haar_trace_samples(ctx, "rho_tau_sigma", coeffs, 80, params, phi_count=3))
        exact = haar_trace(ctx, "rho_tau_sigma", coeffs, 80, params)
        assert abs(coarse.real - exact) > 1e-3 * abs(exact)
        # phase-independent elements are exact on any grid
        got = haar_trace(ctx, "rho_tau_inf", [0.0] * 6 + [1.0], 80, params, phi_count=3)
        ref = haar_trace(ctx, "rho_tau_inf", [0.0] * 6 + [1.0], 80, params)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_smallest_exact_phase_grid_accepted(self, ctx: QContext) -> None:
        # lcm(7, 2) = 14 > 12 integrates every harmonic of a degree-6 trace
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        coeffs = [0.0] * 6 + [1.0]
        got = haar_trace(ctx, "rho_tau_sigma", coeffs, 80, params, phi_count=7)
        ref = haar_trace(ctx, "rho_tau_sigma", coeffs, 80, params)
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_phase_grid_rule_is_harmonic_aliasing(self, degree: int) -> None:
        # an M-point trapezoid grid misses the mean of e^{i m phi} iff M divides m
        for points in range(1, 18):
            aliased = any(m % points == 0 for m in range(2, 2 * degree + 1, 2))
            if aliased:
                with pytest.raises(DomainError):
                    qsu2rep._check_phase_grid("rho_tau_sigma", degree, points)
            else:
                qsu2rep._check_phase_grid("rho_tau_sigma", degree, points)
            qsu2rep._check_phase_grid("rho_tau_inf", degree, points)

    def test_phase_independence_of_covariant_elements(self, ctx: QContext) -> None:
        params = SphericalParams(tau=TAU)
        for name, p in (
            ("cocentral", None),
            ("gamma_star_gamma", None),
            ("rho_tau_inf", params),
        ):
            s = haar_trace_samples(ctx, name, [0.0, 0.0, 1.0], 80, p)
            mean = np.mean(s)
            assert np.max(np.abs(s - mean)) < 1e-10 * (1.0 + abs(mean))

    def test_two_parameter_element_phase_average_invariance(self, ctx: QContext) -> None:
        # per-angle samples genuinely oscillate; only the average is
        # grid-placement independent
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        base = haar_trace_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 80, params)
        assert np.var(base.real) > 1e-2
        m0 = np.mean(base)
        m1 = np.mean(
            haar_trace_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 80, params, phi_offset=0.3)
        )
        m2 = np.mean(
            haar_trace_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 80, params, phi_count=16)
        )
        assert abs(m1 - m0) < 1e-10 * (1.0 + abs(m0))
        assert abs(m2 - m0) < 1e-10 * (1.0 + abs(m0))

    @given(
        c1=st.floats(-2, 2),
        c2=st.floats(-2, 2),
        s=st.floats(-3, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_linearity(self, c1: float, c2: float, s: float) -> None:
        ctx = QContext(0.5)
        p1 = np.array([0.3, c1, 0.0, 1.0])
        p2 = np.array([c2, 0.0, -1.0, 0.5])
        a = haar_trace(ctx, "cocentral", p1 + s * p2, 60, tol=1e-6)
        b = haar_trace(ctx, "cocentral", p1, 60, tol=1e-6) + s * haar_trace(
            ctx, "cocentral", p2, 60, tol=1e-6
        )
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def dense_element(rep, name, params=None):
    """Reference element: the defining formula in dense products of build_rep's generators."""
    q = rep.ctx.q
    A, C = rep.alpha, rep.gamma
    Ah, Ch = A.conj().T, C.conj().T
    if name == "cocentral":
        M = 0.5 * (A + Ah)
    elif name == "gamma_star_gamma":
        M = Ch @ C
    elif name == "rho_tau_inf":
        t = params.tau
        M = 1j * q**t * (Ah @ C - Ch @ A) - (1.0 - q ** (2 * t)) * (Ch @ C)
    else:
        t, s = params.tau, params.sigma
        ts = q**-s - q**s
        tt = q**-t - q**t
        M = 0.5 * (
            A @ A
            + Ah @ Ah
            + q * (C @ C)
            + q * (Ch @ Ch)
            + 1j * q * ts * (Ah @ C - Ch @ A)
            - 1j * q * tt * (C @ A - Ah @ Ch)
            - q * ts * tt * (Ch @ C)
        )
    return 0.5 * (M + M.conj().T)


def horner_samples(ctx, name, coeffs, size, params=None, phi_count=None, phi_offset=0.0):
    """Reference per-angle traces: p(element) built densely by Horner's rule."""
    coeffs = np.asarray(coeffs, dtype=float)
    if phi_count is None:
        phi_count = 4 * (len(coeffs) - 1) + 4
    weights = op_D(ctx, size)
    eye = np.eye(size + 1, dtype=complex)
    out = np.empty(phi_count, dtype=complex)
    for j in range(phi_count):
        rep = build_rep(ctx, phi_offset + 2.0 * math.pi * j / phi_count, size)
        E = dense_element(rep, name, params)
        P = coeffs[-1] * eye
        for c in coeffs[-2::-1]:
            P = P @ E + c * eye
        out[j] = (1.0 - ctx.q**2) * np.sum(weights * np.diagonal(P))
    return out


ELEMENT_CASES = (
    ("cocentral", None),
    ("gamma_star_gamma", None),
    ("rho_tau_inf", SphericalParams(tau=TAU)),
    ("rho_tau_sigma", SphericalParams(tau=TAU, sigma=SIGMA)),
)


class TestBandElement:
    """Band-storage elements against the dense reference formula."""

    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 80])
    @pytest.mark.parametrize("phi", [0.0, 0.37, 2.1])
    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    def test_matches_dense_reference(self, q, size, phi, name, params) -> None:
        rep = build_rep(QContext(q), phi, size)
        got = element(rep, name, params)
        assert got.shape == (size + 1, size + 1)
        assert np.max(np.abs(got - dense_element(rep, name, params))) <= 1e-15

    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    def test_reach_is_largest_offset(self, ctx: QContext, name, params) -> None:
        band = qsu2rep._element_band(ctx, name, params, np.array([0.0, 0.37, 2.1]), 40)
        offsets = [o for o, v in band.items() if np.any(v != 0.0)]
        assert max(abs(o) for o in offsets) == qsu2rep._ELEMENT_REACH[name]

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 80])
    def test_vector_product_matches_dense(self, size, rng) -> None:
        n = size + 1
        i = np.arange(n)
        band = qsu2rep._Band()
        for o in range(-2, 3):
            diag = rng.normal(size=n) + 1j * rng.normal(size=n)
            band[o] = np.where((i + o >= 0) & (i + o < n), diag, 0.0)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = band @ v
        assert got.shape == (n,)
        assert np.max(np.abs(got - band.dense() @ v)) <= 1e-14


def cluster_sums(eigvals: np.ndarray, weights: np.ndarray, gap: float = 1e-9) -> np.ndarray:
    """Weights summed over runs of ascending eigenvalues closer than ``gap`` (relative)."""
    starts = np.flatnonzero(np.diff(eigvals) > gap * np.maximum(1.0, np.abs(eigvals[1:]))) + 1
    return np.add.reduceat(weights, np.concatenate(([0], starts)))


class TestRealGauge:
    """The real symmetric gauge of a band against complex LAPACK on its dense matrix."""

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.9, 0.97])
    @pytest.mark.parametrize("size", [1, 2, 40, 480])
    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    def test_matches_complex_eigh(self, q, size, name, params) -> None:
        ctx = QContext(q)
        band = qsu2rep._element_band(ctx, name, params, 0.0, size)
        Z = band.dense()
        S = band.real_dense()
        assert S.dtype == np.float64
        # the same quarter turns applied to the dense matrix leave no imaginary part
        i = np.arange(size + 1)
        table = np.array([1.0, 1j, -1.0, -1j])
        gauged = [table[(turn * (i[None, :] - i[:, None])) % 4] * Z for turn in (0, 1)]
        real = [G for G in gauged if not np.any(G.imag)]
        assert real and np.array_equal(real[0].real, S)
        assert np.array_equal(S, S.T)

        lam_c, vec_c = np.linalg.eigh(Z)
        lam_r, vec_r = np.linalg.eigh(S)
        assert np.all(np.abs(lam_r - lam_c) <= 1e-14 * np.maximum(1.0, np.abs(lam_c)))
        dens = op_D(ctx, size)
        w_c = (1.0 - q * q) * ((np.abs(vec_c) ** 2).T @ dens)
        w_r = (1.0 - q * q) * ((vec_r**2).T @ dens)
        # single weights of near-degenerate pairs are ill-conditioned; sums are not
        assert np.max(np.abs(cluster_sums(lam_c, w_r) - cluster_sums(lam_c, w_c))) <= 1e-12

    @pytest.mark.parametrize("name, params", ELEMENT_CASES[2:])
    def test_not_gaugeable_off_angle_zero(self, ctx: QContext, name, params) -> None:
        band = qsu2rep._element_band(ctx, name, params, 0.7, 40)
        with pytest.raises(DomainError, match="not real"):
            band.real_dense()


class TestSharedMoments:
    """The one-pass moment route against a per-polynomial Horner reference."""

    @pytest.mark.parametrize("q", [0.5, 0.8])
    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    @pytest.mark.parametrize("grid", [{}, {"phi_count": 9}, {"phi_offset": 0.37}])
    def test_samples_match_horner(self, q, name, params, grid, rng) -> None:
        ctx = QContext(q)
        for deg in range(7):
            coeffs = rng.uniform(-2.0, 2.0, deg + 1)
            coeffs[-1] = math.copysign(0.5 + abs(coeffs[-1]), coeffs[-1])
            got = haar_trace_samples(ctx, name, coeffs, 80, params, **grid)
            ref = horner_samples(ctx, name, coeffs, 80, params, **grid)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_trailing_zeros_keep_degree_grid(self, ctx: QContext) -> None:
        got = haar_trace_samples(ctx, "cocentral", [0.5, -1.0, 2.0, 0.0, 0.0], 60)
        ref = horner_samples(ctx, "cocentral", [0.5, -1.0, 2.0], 60)
        assert got.shape == (12,)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_verify_builds_band_element_once(self, ctx: QContext, monkeypatch) -> None:
        calls = []

        def counting(fn_name):
            real = getattr(qsu2rep, fn_name)

            def wrapper(*args, **kwargs):
                calls.append(fn_name)
                return real(*args, **kwargs)

            return wrapper

        for fn_name in ("element", "_element_band"):
            monkeypatch.setattr(qsu2rep, fn_name, counting(fn_name))
        report = verify("thm6", VerifyConfig(ctx=ctx, poly_set=monomials(6)))
        assert report.all_passed
        # one band element serves the whole phase grid; no dense matrix is built
        assert calls == ["_element_band"]


def mp_two_phi_one_form(n: int, form: int, branch: int, k: int, tau) -> float:
    """Component p_n(lambda) from either terminating series, far beyond doubles."""
    with mp.workdps(80):
        q = mp.mpf("0.5")
        Q = q * q
        tau = mp.mpf(tau)
        lam = q ** (2 * tau + 2 * k) if branch == 1 else -(q ** (2 * k))
        poch = mp.mpf(1)
        for i in range(n):
            poch *= 1 - Q ** (i + 1)
        pre = q ** (mp.mpf(n * (n - 1)) / 2) / mp.sqrt(poch)
        if form == 1:
            pre *= q ** (-n * tau)
            b_par, z = q ** (2 * tau) / lam, -(q**2) * lam
        else:
            pre *= (-(q**tau)) ** n
            b_par, z = -1 / lam, q ** (2 - 2 * tau) * lam
        tot, term = mp.mpf(0), mp.mpf(1)
        for j in range(n + 1):
            tot += term
            term *= (1 - Q ** (j - n)) * (1 - b_par * Q**j) / (1 - Q ** (j + 1)) * z
        return float(pre * tot)


class TestEigenBasis:
    def test_component_head(self, ctx: QContext) -> None:
        p = eigvec_components(-1, 2, TAU, ctx, 20)
        assert p[0] == 1.0

    def test_norm_sq_negative_head(self, ctx: QContext) -> None:
        # lambda = -1 eigenvector has norm_sq (-q^{2 tau}; q^2)_inf
        got = eigvec_norm_sq(-1, 0, TAU, ctx)
        assert got == pytest.approx(qpoch(-(ctx.q ** (2 * TAU)), ctx.squared()), rel=1e-14)

    def test_norm_sq_matches_component_sum(self, ctx: QContext) -> None:
        for branch in (1, -1):
            for k in range(5):
                p = eigvec_components(branch, k, TAU, ctx, 200)
                assert float(p @ p) == pytest.approx(
                    eigvec_norm_sq(branch, k, TAU, ctx), rel=1e-12
                )

    def test_eigen_residuals(self, ctx: QContext) -> None:
        for phi in (0.0, 0.7):
            rep = build_rep(ctx, phi, 200)
            M = element(rep, "rho_tau_inf", SphericalParams(tau=TAU))
            for entry in eigen_basis(ctx, TAU, 200, 4, phi=phi):
                resid = M @ entry.vector - entry.eigenvalue * entry.vector
                assert float(np.linalg.norm(resid)) < 1e-9 * float(
                    np.linalg.norm(entry.vector)
                )

    def test_mutual_orthogonality(self, ctx: QContext) -> None:
        basis = eigen_basis(ctx, TAU, 200, 5, phi=0.7)
        for i, ei in enumerate(basis):
            for ej in basis[i + 1 :]:
                ip = np.vdot(ei.vector, ej.vector)
                assert abs(ip) < 1e-9 * math.sqrt(ei.norm_sq * ej.norm_sq)

    def test_poly_matches_components(self, ctx: QContext) -> None:
        for branch in (1, -1):
            for k in (0, 3):
                p = eigvec_components(branch, k, TAU, ctx, 10)
                for n in range(11):
                    assert eigvec_poly(n, branch, k, TAU, ctx) == pytest.approx(
                        p[n], rel=1e-12, abs=1e-300
                    )

    def test_two_form_agreement(self, ctx: QContext) -> None:
        # the two series forms agree identically; the cancellation in the
        # mismatched pairing needs extended precision past n ~ 8, so the
        # cross-check runs through the high-precision reference
        for branch in (1, -1):
            for k in (0, 2):
                for n in range(11):
                    f1 = mp_two_phi_one_form(n, 1, branch, k, TAU)
                    f2 = mp_two_phi_one_form(n, 2, branch, k, TAU)
                    assert f1 == pytest.approx(f2, rel=1e-10, abs=1e-300)
                    got = eigvec_poly(n, branch, k, TAU, ctx)
                    assert got == pytest.approx(f1, rel=1e-12, abs=1e-300)

    def test_mismatched_form_small_n(self, ctx: QContext) -> None:
        # the cancellation grows like q^{-(n + tau)^2 / something}; doubles
        # hold to ~1e-8 only for the first few degrees
        for branch, form in ((1, 2), (-1, 1)):
            for n in range(6):
                got = eigvec_poly(n, branch, 1, TAU, ctx, form=form)
                want = mp_two_phi_one_form(n, form, branch, 1, TAU)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-300)

    def test_mismatched_form_large_n_rejected(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            eigvec_poly(30, 1, 0, TAU, ctx, form=2)

    def test_branch_validation(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            eigvec_components(0, 1, TAU, ctx, 10)
        with pytest.raises(DomainError):
            eigvec_components(1, -1, TAU, ctx, 10)


class TestDCoeff:
    def test_head_value(self, ctx: QContext) -> None:
        got = d_coeff(ctx, TAU, -1, 0, -1, 0)
        assert got == pytest.approx(
            qpoch(-(ctx.q ** (2 * TAU + 2)), ctx.squared()), rel=1e-14
        )

    def test_matrix_oracle(self, ctx: QContext) -> None:
        # direct weighted sums over components, all branch combinations
        q = ctx.q
        w = q ** (2.0 * np.arange(301))
        comp = {
            (b, k): eigvec_components(b, k, TAU, ctx, 300) for b in (1, -1) for k in range(5)
        }
        for b1 in (1, -1):
            for b2 in (1, -1):
                for k1 in range(5):
                    for k2 in range(5):
                        direct = float(np.sum(w * comp[(b1, k1)] * comp[(b2, k2)]))
                        assert d_coeff(ctx, TAU, b1, k1, b2, k2) == pytest.approx(
                            direct, rel=1e-9
                        )

    def test_diagonal_ratio_is_ladder_weight(self, ctx: QContext) -> None:
        q = ctx.q
        for branch in (1, -1):
            for k in range(4):
                ratio = d_coeff(ctx, TAU, branch, k, branch, k) / eigvec_norm_sq(
                    branch, k, TAU, ctx
                )
                want = q ** (2 * k) / (1.0 + q ** (2 * TAU))
                if branch == 1:
                    want *= q ** (2 * TAU)
                assert ratio == pytest.approx(want, rel=1e-12)


class TestSpectralTrace:
    def test_against_operator_route(self, ctx: QContext) -> None:
        params = SphericalParams(tau=TAU)
        for coeffs in ([0.0, 1.0], [0.0, 0.0, 1.0], [0.2, -0.5, 0.0, 1.0]):
            ladder = spectral_trace(ctx, TAU, coeffs)
            op = haar_trace(ctx, "rho_tau_inf", coeffs, 200, params)
            assert ladder == pytest.approx(op, rel=1e-9, abs=1e-12)

    def test_unit(self, ctx: QContext) -> None:
        assert spectral_trace(ctx, TAU, [1.0]) == pytest.approx(1.0, rel=1e-12)


class TestDecomposition:
    def test_polynomial_preserves_blocks(self, ctx: QContext) -> None:
        # p(M) cannot mix the two ladders: <u, M^3 w> stays at roundoff
        rep = build_rep(ctx, 0.0, 200)
        M = element(rep, "rho_tau_inf", SphericalParams(tau=TAU))
        M3 = M @ M @ M
        neg = [e for e in eigen_basis(ctx, TAU, 200, 3, branches=(-1,))]
        pos = [e for e in eigen_basis(ctx, TAU, 200, 3, branches=(1,))]
        for en in neg:
            for ep in pos:
                val = np.vdot(ep.vector, M3 @ en.vector)
                assert abs(val) < 1e-9 * math.sqrt(en.norm_sq * ep.norm_sq)

    def test_ladder_recurrence_matrix_elements(self, ctx: QContext) -> None:
        # 2 rho_tau_sigma acts tridiagonally on each normalized ladder
        q = ctx.q
        rep = build_rep(ctx, 0.0, 200)
        R2 = 2.0 * element(rep, "rho_tau_sigma", SphericalParams(tau=TAU, sigma=SIGMA))
        for branch in (1, -1):
            basis = eigen_basis(ctx, TAU, 200, 9, branches=(branch,))
            w = [e.vector / math.sqrt(e.norm_sq) for e in basis]
            for m in range(8):
                if branch == -1:
                    a_m = math.sqrt((1 - q ** (2 * m + 2)) * (1 + q ** (2 * m + 2 - 2 * TAU)))
                    b_m = q ** (2 * m + 1 - TAU) * (q**SIGMA - q**-SIGMA)
                else:
                    a_m = math.sqrt((1 - q ** (2 * m + 2)) * (1 + q ** (2 * m + 2 + 2 * TAU)))
                    b_m = q ** (2 * m + 1 + TAU) * (q**-SIGMA - q**SIGMA)
                up = np.vdot(w[m + 1], R2 @ w[m])
                diag = np.vdot(w[m], R2 @ w[m])
                assert up == pytest.approx(a_m, rel=1e-10)
                assert diag == pytest.approx(b_m, rel=1e-9, abs=1e-12)


class TestVerifyStructure:
    def test_all_residuals_small(self, ctx: QContext) -> None:
        report = verify_structure(ctx, TAU, SIGMA, 150)
        assert report.relations < 1e-10
        assert report.factorization < 1e-10
        assert report.shifts < 1e-10
        assert report.recursion < 1e-10
        assert report.max_deviation < 1e-10

    def test_sees_the_production_generators(self, ctx: QContext, monkeypatch) -> None:
        real = qsu2rep._generators

        def perturbed(*args):
            A, C = real(*args)
            A[1][10] *= 1.0 + 1e-6
            return A, C

        monkeypatch.setattr(qsu2rep, "_generators", perturbed)
        assert verify_structure(ctx, TAU, SIGMA, 60).relations > 1e-8

    def test_builds_no_dense_generators(self, ctx: QContext, monkeypatch) -> None:
        calls = []

        def counting(fn_name):
            real = getattr(qsu2rep, fn_name)

            def wrapper(*args, **kwargs):
                calls.append(fn_name)
                return real(*args, **kwargs)

            return wrapper

        for fn_name in ("build_rep", "element", "_element_band"):
            monkeypatch.setattr(qsu2rep, fn_name, counting(fn_name))
        assert verify_structure(ctx, TAU, SIGMA, 60).max_deviation < 1e-10
        # rho_tau_sigma comes from its band; nothing is built as a dense matrix
        assert calls == ["_element_band"]

    def test_small_size_rejected(self, ctx: QContext) -> None:
        with pytest.raises(DomainError):
            verify_structure(ctx, TAU, SIGMA, 30)

    def test_builds_each_eigenvector_once(self, ctx: QContext, monkeypatch) -> None:
        keys = []
        real = qsu2rep.eigvec_components

        def counting(branch, k, tau, ctx, size):
            keys.append((branch, k, tau))
            return real(branch, k, tau, ctx, size)

        monkeypatch.setattr(qsu2rep, "eigvec_components", counting)
        verify_structure(ctx, TAU, SIGMA, 60)
        assert len(keys) == len(set(keys)) <= 26

    # (relations, factorization, shifts, recursion) of the implementation that
    # built every eigenvector afresh, x86-64 with numpy 2 and OpenBLAS
    @pytest.mark.parametrize(
        "q, want",
        [
            (0.5, ("0x1.0048309dd37d9p-53", "0x1.000e7e69d048ep-52",
                   "0x1.896c97bd1ec83p-49", "0x1.1b69392d47fb7p-51")),
            (0.9, ("0x1.01388fae2915bp-52", "0x1.0000000000007p-51",
                   "0x1.5990fbad169dep-48", "0x1.55215da5c7415p-49")),
        ],
    )
    def test_reuse_keeps_every_bit(self, q, want) -> None:
        report = verify_structure(QContext(q), TAU, SIGMA, 480)
        got = tuple(
            float.hex(getattr(report, f))
            for f in ("relations", "factorization", "shifts", "recursion")
        )
        assert got == want

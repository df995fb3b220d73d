"""Truncated generator representation, Haar trace, and the spectral ladder basis."""
from __future__ import annotations

import collections
import math
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
    haar_moments,
    haar_trace,
    moment_trace,
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

    def test_coarse_phase_grid_aliases(self, ctx: QContext) -> None:
        # lcm(3, 2) = 6 does not exceed 2 * 6: on 3 angles the e^{6 i phi}
        # harmonic of a degree-6 rho_tau_sigma trace aliases onto the mean
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        coeffs = [0.0] * 6 + [1.0]
        coarse = np.mean(horner_samples(ctx, "rho_tau_sigma", coeffs, 80, params, 3))
        exact = haar_trace(ctx, "rho_tau_sigma", coeffs, 80, params)
        assert abs(coarse.real - exact) > 1e-3 * abs(exact)
        # phase-independent elements are exact on any grid
        ref = np.mean(horner_samples(ctx, "rho_tau_inf", coeffs, 80, params, 3))
        got = haar_trace(ctx, "rho_tau_inf", coeffs, 80, params)
        assert got == pytest.approx(ref.real, rel=1e-13)

    def test_smallest_exact_phase_grid_accepted(self, ctx: QContext) -> None:
        # lcm(7, 2) = 14 > 12 integrates every harmonic of a degree-6 trace
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        coeffs = [0.0] * 6 + [1.0]
        assert haar_moments(ctx, "rho_tau_sigma", 6, 80, params).shape == (7, 7)
        ref = np.mean(horner_samples(ctx, "rho_tau_sigma", coeffs, 80, params, 7))
        got = haar_trace(ctx, "rho_tau_sigma", coeffs, 80, params)
        assert got == pytest.approx(ref.real, rel=1e-13)

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_phase_grid_rule_is_harmonic_aliasing(self, degree: int) -> None:
        # an M-point trapezoid grid misses the mean of e^{i m phi} iff M divides
        # m; the derived grid is the least M that divides no even m <= 2 * degree
        exact = [
            points
            for points in range(1, 18)
            if not any(m % points == 0 for m in range(2, 2 * degree + 1, 2))
        ]
        assert qsu2rep._exact_phase_grid("rho_tau_sigma", degree) == exact[0]
        assert qsu2rep._exact_phase_grid("rho_tau_inf", degree) == 1

    def test_phase_independence_of_covariant_elements(self, ctx: QContext) -> None:
        params = SphericalParams(tau=TAU)
        for name, p in (
            ("cocentral", None),
            ("gamma_star_gamma", None),
            ("rho_tau_inf", params),
        ):
            s = horner_samples(ctx, name, [0.0, 0.0, 1.0], 80, p)
            mean = np.mean(s)
            assert np.max(np.abs(s - mean)) < 1e-10 * (1.0 + abs(mean))
            # the one real angle of haar_moments carries that constant
            got = haar_trace(ctx, name, [0.0, 0.0, 1.0], 80, p)
            assert abs(got - mean) < 1e-10 * (1.0 + abs(mean))

    def test_two_parameter_element_phase_average_invariance(self, ctx: QContext) -> None:
        # per-angle samples genuinely oscillate; only the average is
        # grid-placement independent
        params = SphericalParams(tau=TAU, sigma=SIGMA)
        base = horner_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 80, params)
        assert np.var(base.real) > 1e-2
        m0 = np.mean(base)
        m1 = np.mean(horner_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 80, params, phi_offset=0.3))
        m2 = np.mean(horner_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 80, params, 16))
        m3 = haar_trace(ctx, "rho_tau_sigma", [0.0, 1.0], 80, params)
        for m in (m1, m2, m3):
            assert abs(m - m0) < 1e-10 * (1.0 + abs(m0))

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

    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_shift_is_roll_with_zeros_brought_in(self, shape, rng) -> None:
        v = rng.normal(size=shape)
        i = np.arange(shape[-1])
        for s in range(-7, 8):
            want = np.where((i + s >= 0) & (i + s < shape[-1]), np.roll(v, -s, axis=-1), 0.0)
            assert np.array_equal(qsu2rep._shift(v, s), want), s

    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    def test_products_keep_rolled_values(self, ctx: QContext, name, params) -> None:
        # the wrapped positions of np.roll only ever met a zero entry, so the
        # slice shifts leave every product, adjoint and diagonal as it was
        def roll_matmul(x_band, y_band):
            out = {}
            for a, x in x_band.items():
                for b, y in y_band.items():
                    if abs(a + b) < x.shape[-1]:
                        term = x * np.roll(y, -a, axis=-1)
                        out[a + b] = out[a + b] + term if a + b in out else term
            return out

        E = qsu2rep._element_band(ctx, name, params, np.array([0.0, 0.9, 2.5]), 30)
        E2 = E @ E
        want = roll_matmul(E, E)
        assert sorted(E2) == sorted(want)
        for o in want:
            assert np.array_equal(E2[o], want[o]), o
        for o, v in E.H.items():
            assert np.array_equal(v, np.roll(E[-o].conj(), -o, axis=-1)), o
        assert np.array_equal(E2.diag_of_product(E2), roll_matmul(E2, E2)[0])


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


SPLIT_GRID = [
    (q, tau, size)
    for q in (0.05, 0.3, 0.5, 0.9, 0.97)
    for tau in (0.0, 0.4, 1.2)
    for size in (40, 160, 480)
]


def w_tail(ctx: QContext, size: int) -> np.ndarray:
    return (1.0 - ctx.q * ctx.q) * op_D(ctx, size)


def full_spectrum(band, ctx: QContext, size: int):
    """The real gauge of a band, its full ``eigh`` eigenvalues and their trace weights."""
    S = band.real_dense()
    lam, vecs = np.linalg.eigh(S)
    return S, lam, (1.0 - ctx.q * ctx.q) * ((vecs**2).T @ op_D(ctx, size))


def recorded_calls(monkeypatch, band, ctx=None):
    """``_band_spectrum`` of a band, with the LAPACK routines it called and their matrix shapes."""
    calls = []
    with monkeypatch.context() as patch:
        for fn_name in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, fn_name)

            def recording(a, *args, real=real, fn_name=fn_name, **kwargs):
                calls.append((fn_name, a.shape))
                return real(a, *args, **kwargs)

            patch.setattr(np.linalg, fn_name, recording)
        vals, weights = qsu2rep._band_spectrum(band, ctx)
    return vals, weights, calls


def recorded_spectrum(monkeypatch, band, ctx=None):
    """``_band_spectrum`` of a band, with the shapes of the matrices LAPACK got."""
    vals, weights, calls = recorded_calls(monkeypatch, band, ctx)
    return vals, weights, [shape for _, shape in calls]


def chiral_values(s: np.ndarray, order: int) -> np.ndarray:
    """Ascending -s, the zero modes and s of a chiral matrix of ``order`` from the singular values s."""
    return np.sort(np.concatenate((-s, np.zeros(order - 2 * s.size), s)), kind="stable")


class TestBandSpectrum:
    """The decoupled split against a full LAPACK call on the same real gauge."""

    @pytest.mark.parametrize("q, tau, size", SPLIT_GRID)
    def test_rho_inf_matches_full_eigh(self, monkeypatch, q, tau, size) -> None:
        ctx = QContext(q)
        band = qsu2rep._element_band(ctx, "rho_tau_inf", SphericalParams(tau), 0.0, size)
        S, lam, w = full_spectrum(band, ctx, size)
        got, weights, shapes = recorded_spectrum(monkeypatch, band, ctx)
        assert len(shapes) == 1
        m = shapes[0][0]
        # couplings q^{tau + n} fall below eps near n = 37 / ln(1/q)
        assert (m < size + 1) == (36.0 / math.log(1.0 / q) < size - 2)
        eps, peak = np.finfo(float).eps, float(np.max(np.abs(S)))
        # what the split drops: every coupling of an index n >= m
        head = np.zeros_like(S)
        head[:m, :m] = S[:m, :m]
        dropped = S - head - np.diag(np.append(np.zeros(m), np.diagonal(S)[m:]))
        assert np.linalg.norm(dropped, 2) <= eps * peak
        assert got.shape == weights.shape == (size + 1,)
        assert np.all(np.diff(got) >= 0.0)
        # two LAPACK solves of different orders differ by their roundoff:
        # 10.2 eps max|M| on this grid (q = 0.9, N = 480), where the full
        # solve alone is 12 eps max|M| from the exact ladder values
        assert np.max(np.abs(got - lam)) <= 16 * eps * peak
        assert np.max(np.abs(weights - w)) <= 1e-14
        if m == size + 1:
            assert got.tobytes() == lam.tobytes() and weights.tobytes() == w.tobytes()
        else:
            # each tail index n >= m is (M[n, n], e_n), weight (1 - q^2) q^{2n}
            tail = np.diagonal(S)[m:]
            rows = collections.Counter(zip(got.tolist(), weights.tolist()))
            want = collections.Counter(zip(tail.tolist(), w_tail(ctx, size)[m:].tolist()))
            assert rows & want == want
            if tau == 0.0:
                assert not np.any(tail) and np.all(np.signbit(tail))

    @pytest.mark.parametrize("q, tau, size", SPLIT_GRID)
    @pytest.mark.parametrize("name", ["cocentral", "rho_tau_sigma"])
    def test_no_split_is_the_full_call(self, monkeypatch, q, tau, size, name) -> None:
        ctx = QContext(q)
        params = SphericalParams(tau, 1.5) if name == "rho_tau_sigma" else None
        band = qsu2rep._element_band(ctx, name, params, 0.0, size)
        S, lam, w = full_spectrum(band, ctx, size)
        if name == "cocentral":
            # nothing decouples: the one LAPACK call is the SVD of the whole
            # even-odd block, bit for bit a direct call on that block
            block = S[0::2, 1::2]
            got, weights, calls = recorded_calls(monkeypatch, band, ctx)
            assert calls == [("svd", block.shape)]
            assert got.tobytes() == chiral_values(np.linalg.svd(block)[1], size + 1).tobytes()
            assert np.max(np.abs(weights - w)) <= 1e-14
            got, none, calls = recorded_calls(monkeypatch, band)
            assert calls == [("svd", block.shape)] and none is None
            want = chiral_values(np.linalg.svd(block, compute_uv=False), size + 1)
            assert got.tobytes() == want.tobytes()
            return
        got, weights, shapes = recorded_spectrum(monkeypatch, band, ctx)
        assert shapes == [(size + 1, size + 1)]
        assert got.tobytes() == lam.tobytes() and weights.tobytes() == w.tobytes()
        got, none, shapes = recorded_spectrum(monkeypatch, band)
        assert shapes == [(size + 1, size + 1)] and none is None
        assert got.tobytes() == np.linalg.eigvalsh(S).tobytes()

    def test_zero_band_is_all_tail(self) -> None:
        band = qsu2rep._Band({0: np.zeros(5, dtype=complex), 1: np.zeros(5, dtype=complex)})
        vals, weights = qsu2rep._band_spectrum(band, QContext(0.5))
        assert vals.tolist() == [0.0] * 5
        assert weights.tolist() == w_tail(QContext(0.5), 4).tolist()


class TestChiralSplit:
    """cocentral stores only the diagonals +-1, so its spectrum is one SVD of half the order."""

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.99])
    @pytest.mark.parametrize("size", [1, 2, 3, 40, 161, 480])
    def test_against_full_eigh(self, monkeypatch, q, size) -> None:
        ctx = QContext(q)
        band = qsu2rep._element_band(ctx, "cocentral", None, 0.0, size)
        S, lam, w = full_spectrum(band, ctx, size)
        got, weights, calls = recorded_calls(monkeypatch, band, ctx)
        order = size + 1
        assert calls == [("svd", ((order + 1) // 2, order // 2))]
        assert got.shape == weights.shape == (order,)
        assert np.all(np.diff(got) >= 0.0)
        # +-s pairs, bitwise negated and of equal weight, around one exact +0.0 for odd order
        pairs = order // 2
        neg, pos = got[:pairs], got[order - pairs :][::-1]
        assert (-neg).tobytes() == pos.tobytes() and np.all(pos > 0.0)
        assert weights[:pairs].tobytes() == weights[order - pairs :][::-1].tobytes()
        zeros = got[pairs : order - pairs]
        assert zeros.tolist() == [0.0] * (order % 2) and not np.any(np.signbit(zeros))
        # SVD and eigh differ by their roundoff: 13 eps max|M| at q = 0.5, N = 40
        eps, peak = np.finfo(float).eps, float(np.max(np.abs(S)))
        assert np.max(np.abs(got - lam)) <= 16 * eps * peak
        assert np.max(np.abs(weights - w)) <= 1e-14
        assert abs(weights.sum() - (1.0 - q ** (2 * order))) <= 1e-13

    @pytest.mark.parametrize("size", [1, 2, 161])
    def test_values_alone(self, monkeypatch, size) -> None:
        band = qsu2rep._element_band(QContext(0.5), "cocentral", None, 0.0, size)
        got, none, calls = recorded_calls(monkeypatch, band)
        assert none is None and calls == [("svd", ((size + 2) // 2, (size + 1) // 2))]
        with_weights, _ = qsu2rep._band_spectrum(band, QContext(0.5))
        assert np.max(np.abs(got - with_weights)) <= 16 * np.finfo(float).eps

    def test_chosen_by_the_stored_offsets(self, monkeypatch) -> None:
        # rho_tau_inf at tau = 0 stores an all-zero main diagonal: it keeps eigh
        ctx = QContext(0.9)
        band = qsu2rep._element_band(ctx, "rho_tau_inf", SphericalParams(0.0), 0.0, 40)
        assert not np.any(band[0])
        _, _, calls = recorded_calls(monkeypatch, band, ctx)
        assert calls == [("eigh", (41, 41))]
        # the same band without that diagonal is chiral
        odd = qsu2rep._Band({o: v for o, v in band.items() if o})
        got, weights, calls = recorded_calls(monkeypatch, odd, ctx)
        assert calls == [("svd", (21, 20))]
        want, w = qsu2rep._band_spectrum(band, ctx)
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps
        assert np.max(np.abs(weights - w)) <= 1e-14


class TestSharedMoments:
    """The one-pass moment route against a per-polynomial Horner reference."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_average_refused(self, ctx: QContext) -> None:
        # at sigma = 200 rho_tau_sigma has entries near q^-200, and its
        # sixth power leaves the float range
        params = SphericalParams(TAU, 200.0)
        with pytest.raises(ConvergenceError, match="not finite"):
            haar_trace(ctx, "rho_tau_sigma", (0.0,) * 6 + (1.0,), 160, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("degree", [6, 7])
    def test_overflowing_powers_refused_without_warning(self, ctx: QContext, degree: int) -> None:
        # the powers overflow inside numpy; haar_moments refuses them once,
        # on the finished moments, and numpy warns about nothing
        params = SphericalParams(TAU, 200.0)
        with pytest.raises(ConvergenceError, match="moments of rho_tau_sigma .* not finite"):
            haar_moments(ctx, "rho_tau_sigma", degree, 160, params)

    @pytest.mark.parametrize("q", [0.5, 0.8])
    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    @pytest.mark.parametrize("grid", [{}, {"phi_count": 9}, {"phi_offset": 0.37}])
    def test_samples_match_horner(self, q, name, params, grid, rng) -> None:
        # on its own grid ({}) every per-angle sample matches; any other exact
        # grid of the reference has the same mean
        ctx = QContext(q)
        for deg in range(7):
            coeffs = rng.uniform(-2.0, 2.0, deg + 1)
            coeffs[-1] = math.copysign(0.5 + abs(coeffs[-1]), coeffs[-1])
            moments = haar_moments(ctx, name, deg, 80, params)
            points, offset = grid.get("phi_count", len(moments)), grid.get("phi_offset", 0.0)
            ref = horner_samples(ctx, name, coeffs, 80, params, points, offset)
            if grid:
                got, ref = moment_trace(coeffs, moments), np.mean(ref)
            else:
                got = moments @ coeffs
                assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_trailing_zeros_keep_degree_grid(self, ctx: QContext) -> None:
        # bit-identical: trailing zeros leave the degree, hence the grid, as it is
        for name, params in ELEMENT_CASES:
            got = haar_trace(ctx, name, [0.5, -1.0, 2.0, 0.0, 0.0], 60, params)
            assert got == haar_trace(ctx, name, [0.5, -1.0, 2.0], 60, params)
            ref = np.mean(horner_samples(ctx, name, [0.5, -1.0, 2.0], 60, params))
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

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

    def test_polynomial_above_moment_degree_refused(self, ctx: QContext) -> None:
        moments = haar_moments(ctx, "cocentral", 3, 60)
        assert moment_trace([0.0, 0.0, 0.0, 1.0, 0.0], moments) == moment_trace(
            [0.0, 0.0, 0.0, 1.0], moments
        )
        with pytest.raises(DomainError, match="degree 4 .* reach degree 3"):
            moment_trace([0.0, 0.0, 0.0, 0.0, 1.0], moments)


EPS = np.finfo(float).eps
EXACT_GRID_DEGREES = list(range(1, 9)) + [12, 24]


def abs_moments(ctx, name, params, degree, size, phi_count):
    """(1 - q^2) sum_n q^{2n} (|E|^k)_nn, k = 0..degree, for |E| the entrywise
    maximum of |element| over ``phi_count`` uniform angles: the scale of the
    rounding in any route's k-th moment."""
    phi = 2.0 * math.pi * np.arange(phi_count) / phi_count
    band = qsu2rep._element_band(ctx, name, params, phi, size)
    E = qsu2rep._Band({o: np.abs(v).max(axis=tuple(range(v.ndim - 1))) for o, v in band.items()})
    w = (1.0 - ctx.q**2) * op_D(ctx, size)
    out = np.zeros(degree + 1)
    out[0] = w.sum()
    P = E
    for k in range(1, degree + 1):
        if k > 1:
            P = P @ E
        if 0 in P:
            out[k] = P[0] @ w
    return out


def dense_moments(ctx, name, params, degree, size, points):
    """Reference per-angle moments (1 - q^2) tr(D E^k), k = 0..degree, of the
    dense element on ``points`` uniform angles from 0: dense powers up to
    h = ceil(degree / 2), and diag(E^h E^{k-h}) past them."""
    w = (1.0 - ctx.q**2) * op_D(ctx, size)
    half = (degree + 1) // 2
    out = np.empty((points, degree + 1), dtype=complex)
    phi = 2.0 * math.pi * np.arange(points) / points
    band = qsu2rep._element_band(ctx, name, params, phi, size)
    for j in range(points):
        # diagonals that do not depend on the angle carry no angle axis
        E = qsu2rep._Band({o: v[j] if v.ndim > 1 else v for o, v in band.items()}).dense()
        powers = [np.eye(size + 1, dtype=complex)]
        for k in range(1, half + 1):
            powers.append(powers[-1] @ E)
        for k in range(degree + 1):
            if k <= half:
                diag = np.diagonal(powers[k])
            else:
                diag = np.einsum("ij,ji->i", powers[half], powers[k - half])
            out[j, k] = diag @ w
    return out


def rounding_bound(A, points):
    # k + 1 roundings per entry of the k-th power, plus up to ``points`` in the
    # mean over a grid of that many angles
    return EPS * A * (np.arange(A.size) + 1 + points)


class TestExactPhaseGrid:
    """The default grid of haar_moments: one real angle, or the least exact M."""

    @pytest.mark.parametrize("name", qsu2rep.ELEMENT_NAMES)
    def test_smallest_grid_check_accepts(self, name) -> None:
        # the closed form is the least M with lcm(M, 2) > 2 * degree
        def resolves(degree, points):
            return name != "rho_tau_sigma" or math.lcm(points, 2) > 2 * degree

        for degree in range(300):
            m = qsu2rep._exact_phase_grid(name, degree)
            assert resolves(degree, m)
            assert not any(resolves(degree, smaller) for smaller in range(1, m))
        assert qsu2rep._exact_phase_grid(name, 6) == (7 if name == "rho_tau_sigma" else 1)

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    def test_default_grid_matches_full_grid(self, q, name, params) -> None:
        # every moment's mean against dense powers on 4 * degree + 4 angles
        ctx = QContext(q)
        for degree in EXACT_GRID_DEGREES:
            size = qsu2rep._ELEMENT_REACH[name] * degree + 30
            got = haar_moments(ctx, name, degree, size, params, tol=0.5)
            assert got.shape == (qsu2rep._exact_phase_grid(name, degree), degree + 1)
            if name != "rho_tau_sigma":
                assert not np.any(got.imag)
            full = 4 * degree + 4
            ref = dense_moments(ctx, name, params, degree, size, full)
            A = abs_moments(ctx, name, params, degree, size, full)
            assert np.all(np.abs(got.mean(axis=0) - ref.mean(axis=0)) <= rounding_bound(A, full))

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    def test_default_grid_matches_horner(self, q, name, params) -> None:
        # the reference grid is exact on its own terms: one angle off the real
        # gauge for the covariant elements, 2 * degree + 1 for rho_tau_sigma
        ctx = QContext(q)
        rng = np.random.default_rng(14)
        for degree in EXACT_GRID_DEGREES:
            size = qsu2rep._ELEMENT_REACH[name] * degree + 10
            coeffs = rng.uniform(-1.0, 1.0, degree + 1)
            points = 2 * degree + 1 if name == "rho_tau_sigma" else 1
            got = moment_trace(coeffs, haar_moments(ctx, name, degree, size, params, tol=0.5))
            ref = horner_samples(ctx, name, coeffs, size, params, points, phi_offset=0.37)
            A = abs_moments(ctx, name, params, degree, size, points)
            assert abs(got - np.mean(ref).real) <= np.abs(coeffs) @ rounding_bound(A, points)

    @pytest.mark.parametrize("size", [3, 40])
    @pytest.mark.parametrize("name, params", ELEMENT_CASES)
    def test_diag_of_product(self, ctx: QContext, size, name, params) -> None:
        phi = np.array([0.0, 0.9])
        E = qsu2rep._element_band(ctx, name, params, phi, size)
        for X, Y in ((E, E), (E @ E, E), (E @ E, E @ E)):
            got = X.diag_of_product(Y)
            if 0 in X @ Y:
                assert np.array_equal(got, (X @ Y)[0])
            else:
                assert got is None


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


def reference_eigvec_components(
    branch: int, k: int, tau: float, ctx: QContext, size: int
) -> np.ndarray:
    """p_0..p_size by the scalar loop: every n in turn, the j-sum term by term,
    components whose prefactor has underflowed to exact zero left at 0."""
    q = ctx.q
    Q = q * q
    lam = qsu2rep._branch_lambda(branch, k, tau, q)
    Z = -(q**2) * lam if branch == 1 else q ** (2 - 2 * tau) * lam
    out = np.zeros(size + 1)
    pre = 1.0
    for n in range(size + 1):
        if pre != 0.0:
            s, c = 0.0, 1.0
            for j in range(min(n, k) + 1):
                s += c
                c *= (
                    (1.0 - q ** (-2 * n) * Q**j)
                    * (1.0 - q ** (-2 * k) * Q**j)
                    / (1.0 - Q ** (j + 1))
                    * Z
                )
            out[n] = pre * s
        pre *= (q**-tau if branch == 1 else -(q**tau)) * q**n / math.sqrt(1.0 - Q ** (n + 1))
    return out


class TestEigvecComponentsReference:
    def test_every_bit_of_the_scalar_loop(self) -> None:
        rng = np.random.default_rng(20261018)
        cases = [
            (q, k, branch, tau, size)
            for q in (0.05, 0.99)
            for k in (0, 5)
            for branch in (1, -1)
            for tau in (-1.0, 2.0)
            for size in (40, 480)
        ]
        for _ in range(300):
            cases.append(
                (
                    float(rng.uniform(0.05, 0.99)),
                    int(rng.integers(0, 6)),
                    int(rng.choice((1, -1))),
                    float(rng.uniform(-1.0, 2.0)),
                    int(rng.integers(40, 481)),
                )
            )
        for q, k, branch, tau, size in cases:
            ctx = QContext(q)
            got = eigvec_components(branch, k, tau, ctx, size)
            want = reference_eigvec_components(branch, k, tau, ctx, size)
            assert [float(x).hex() for x in got] == [float(x).hex() for x in want], (
                q, k, branch, tau, size)


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
            # at angle phi, component n of each eigenvector takes e^{i n phi}
            phase = np.exp(1j * np.arange(201) * phi)
            for entry in eigen_basis(ctx, TAU, 200, 4):
                vector = phase * entry.vector
                resid = M @ vector - entry.eigenvalue * vector
                assert float(np.linalg.norm(resid)) < 1e-9 * float(np.linalg.norm(vector))

    def test_mutual_orthogonality(self, ctx: QContext) -> None:
        phase = np.exp(0.7j * np.arange(201))
        basis = eigen_basis(ctx, TAU, 200, 5)
        for i, ei in enumerate(basis):
            for ej in basis[i + 1 :]:
                ip = np.vdot(phase * ei.vector, phase * ej.vector)
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

    def test_hex_identical_to_separate_factorials(self) -> None:
        # one qpoch call per closed form, multiplied in the order of the
        # three separate factorials it replaces
        for q, tau in ((0.3, 0.0), (0.5, TAU), (0.9, 1.3)):
            ctx, ctx2 = QContext(q), QContext(q * q)
            neg, pos = -(q ** (2 - 2 * tau)), -(q ** (2 + 2 * tau))
            for k1 in range(5):
                for branch, a, b in ((1, pos, -(q ** (-2 * tau))), (-1, neg, -(q ** (2 * tau)))):
                    want = q ** (-2 * k1) * qpoch(q * q, ctx2, k1) * qpoch(a, ctx2, k1) * qpoch(b, ctx2)
                    assert eigvec_norm_sq(branch, k1, tau, ctx).hex() == want.hex()
                for k2 in range(5):
                    hi, lo = max(k1, k2), min(k1, k2)
                    cases = {
                        (-1, -1): (pos, q * q, neg, hi, lo),
                        (1, 1): (neg, q * q, pos, hi, lo),
                        (-1, 1): (q * q, neg, pos, k1, k2),
                        (1, -1): (q * q, neg, pos, k2, k1),
                    }
                    for (b1, b2), (a0, a1, a2, m1, m2) in cases.items():
                        want = qpoch(a0, ctx2) * qpoch(a1, ctx2, m1) * qpoch(a2, ctx2, m2)
                        assert d_coeff(ctx, tau, b1, k1, b2, k2).hex() == want.hex()

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

    def test_returns_a_python_float(self, ctx: QContext) -> None:
        assert type(spectral_trace(ctx, TAU, [0.2, -0.5, 0.0, 1.0])) is float

    @pytest.mark.parametrize("coeffs", ([math.nan], [0.0, math.inf], [1.0, -math.inf, 0.0]))
    def test_non_finite_coefficients_refused(self, ctx: QContext, coeffs: list) -> None:
        # refused before the ladder sum, as the other routes refuse a value
        # that is not finite, and without a numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError, match="not finite"):
                spectral_trace(ctx, TAU, coeffs)


# malformed coefficients, refused with DomainError by both routes
MALFORMED_COEFFS = {
    "str": "01",
    "nested": [[0, 1]],
    "empty": [],
    "complex": [0, 1j],
    "None": None,
    "callable": math.cos,
}


def numpy_moment_trace(coeffs, moments: np.ndarray) -> float:
    """moment_trace as the numpy cast it replaced: trailing zeros trimmed, no degree check."""
    c = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "b")
    return float(complex(np.mean(moments[:, : c.size] @ c)).real)


def spellings(plain: list) -> list:
    """``plain`` (ints or bools) and its floats, each as a tuple, a list and an array."""
    floats = [float(v) for v in plain]
    return [tuple(floats), floats, np.array(floats), tuple(plain), plain, np.array(plain)]


class TestOperatorRouteCoefficients:
    """haar_trace, moment_trace and spectral_trace read coefficients by the
    measure route's rule: malformed input is refused with DomainError, and
    every spelling of valid input gives the bits of its float array."""

    PARAMS = SphericalParams(tau=TAU, sigma=SIGMA)
    POLYS = ([2, 0, -1, 3, 0, 0], [0, 0, 0, 0, 0, 1], [True, False, True, False], [0, 0])

    def routes(self, ctx: QContext, moments: np.ndarray) -> dict:
        return {
            "haar_trace": lambda c: haar_trace(ctx, "rho_tau_sigma", c, 80, self.PARAMS),
            "moment_trace": lambda c: moment_trace(c, moments),
            "spectral_trace": lambda c: spectral_trace(ctx, TAU, c),
        }

    @pytest.mark.parametrize("route", ["haar_trace", "moment_trace", "spectral_trace"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_COEFFS))
    def test_malformed_refused(self, ctx: QContext, route: str, name: str) -> None:
        moments = haar_moments(ctx, "rho_tau_sigma", 2, 80, self.PARAMS)
        with pytest.raises(DomainError):
            self.routes(ctx, moments)[route](MALFORMED_COEFFS[name])

    @pytest.mark.parametrize("values", POLYS, ids=["trailing-zeros", "monomial", "bool", "zero"])
    def test_spellings_give_the_same_bits(self, ctx: QContext, values: list) -> None:
        moments = haar_moments(ctx, "rho_tau_sigma", 6, 80, self.PARAMS)
        routes = self.routes(ctx, moments)
        degree = qsu2rep._poly_degree(values)
        want = {
            "haar_trace": numpy_moment_trace(
                values, haar_moments(ctx, "rho_tau_sigma", degree, 80, self.PARAMS)
            ),
            "moment_trace": numpy_moment_trace(values, moments),
            "spectral_trace": spectral_trace(ctx, TAU, np.array(values, dtype=float)),
        }
        for route, call in routes.items():
            got = [float(call(c)).hex() for c in spellings(values)]
            assert got == [float(want[route]).hex()] * 6, route


class TestDecomposition:
    def test_polynomial_preserves_blocks(self, ctx: QContext) -> None:
        # p(M) cannot mix the two ladders: <u, M^3 w> stays at roundoff
        rep = build_rep(ctx, 0.0, 200)
        M = element(rep, "rho_tau_inf", SphericalParams(tau=TAU))
        M3 = M @ M @ M
        basis = eigen_basis(ctx, TAU, 200, 3)
        neg = [e for e in basis if e.branch == -1]
        pos = [e for e in basis if e.branch == 1]
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
            basis = [e for e in eigen_basis(ctx, TAU, 200, 9) if e.branch == branch]
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

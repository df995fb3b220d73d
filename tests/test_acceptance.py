"""End-to-end acceptance gate: one test per top-level guarantee.

Each test pins the tolerances and grids it must hold at; together they
cover the three dual-route closed forms, the standalone identity suite,
the spectral ladder structure, the algebraic structure residuals, and the
diagonal-element moment bridge.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from qhaar import (
    AWParams,
    QContext,
    SphericalParams,
    VerifyConfig,
    asc_orthonormal,
    asc_poisson,
    aw_jacobi,
    aw_measure,
    bailey_check,
    build_rep,
    cqh_all,
    cqh_poisson,
    eigen_basis,
    element,
    haar_trace,
    mass_identity_check,
    moment_apply,
    monomials,
    op_D,
    orthonormal_polys,
    q_charlier,
    qpoch,
    thm6_params,
    verify,
    verify_structure,
    w87,
)
from qhaar.orthopoly import MomentFunctional, asc_poisson_series, cqh_poisson_series
from qhaar.qseries import SeriesSpec  # noqa: F401  (kept for symmetry of imports)

TAU = 0.4


def trace_samples(ctx, name, coeffs, size, params, points, offset=0.0) -> np.ndarray:
    """Weighted traces (1 - q^2) tr(D p(element)) on ``points`` uniform angles
    from ``offset``, each from the dense element at that angle."""
    w = (1.0 - ctx.q**2) * op_D(ctx, size)
    out = np.empty(points, dtype=complex)
    for j in range(points):
        E = element(build_rep(ctx, offset + 2.0 * math.pi * j / points, size), name, params)
        P = np.zeros_like(E)
        for c in coeffs[::-1]:
            P = P @ E + c * np.eye(size + 1)
        out[j] = np.diagonal(P) @ w
    return out


def gram_under_measure(spec, eval_family) -> np.ndarray:
    """Accumulate sum w * outer(v, v) over continuum nodes and mass points."""
    size = eval_family(0.0).shape[0]
    acc = np.zeros((size, size))
    for th, w in zip(spec.theta_nodes, spec.theta_weights):
        v = eval_family(float(np.cos(th)))
        acc += w * np.outer(v, v)
    for x, w in spec.masses:
        v = eval_family(float(x))
        acc += w * np.outer(v, v)
    return acc


def test_01_semicircle_trace_vs_measure() -> None:
    start = time.perf_counter()
    for q in (0.3, 0.5, 0.8):
        cfg = VerifyConfig(ctx=QContext(q), N=80, poly_set=monomials(6), tol=1e-7)
        report = verify("thm4", cfg)
        for row in report.rows:
            assert row.abs_err <= 1e-7 * (1.0 + abs(row.measure_side)), (
                q,
                row.label,
                row.abs_err,
            )
        assert report.rows[2].measure_side == pytest.approx(0.25, abs=1e-12)
    assert time.perf_counter() - start < 5.0


def test_02_two_endpoint_jackson_trace_vs_measure() -> None:
    start = time.perf_counter()
    ctx = QContext(0.5)
    q = ctx.q
    for tau in (0.2, 0.4, 1.0):
        cfg = VerifyConfig(ctx=ctx, tau=tau, N=160, poly_set=monomials(6), tol=1e-7)
        report = verify("thm5", cfg)
        for row in report.rows:
            assert row.rel_err <= 1e-7, (tau, row.label, row.rel_err)
        want = (q ** (2 * tau) - 1.0) / (1.0 + q * q)
        assert report.rows[1].measure_side == pytest.approx(want, abs=1e-10)
        assert report.rows[1].trace_side == pytest.approx(want, abs=1e-10)
    assert time.perf_counter() - start < 10.0


def test_03_askey_wilson_trace_vs_measure() -> None:
    start = time.perf_counter()
    ctx = QContext(0.5)
    for tau, sigma, n_masses in ((0.4, 0.6, 0), (0.4, 1.5, 2)):
        spec = aw_measure(thm6_params(tau, sigma, ctx))
        assert len(spec.masses) == n_masses
        cfg = VerifyConfig(
            ctx=ctx, tau=tau, sigma=sigma, N=200, poly_set=monomials(6), tol=1e-6
        )
        report = verify("thm6", cfg)
        for row in report.rows:
            assert row.rel_err <= 1e-6, (sigma, row.label, row.rel_err)
    assert time.perf_counter() - start < 60.0


def test_04_identity_suite() -> None:
    ctx = QContext(0.5)
    ctx2 = ctx.squared()
    q = ctx.q

    # combined kernel-pair density identity at five angles
    for theta in (0.3, 0.9, 1.4, 2.2, 2.9):
        assert bailey_check(theta, TAU, 1.5, ctx) <= 1e-8

    # discrete-mass-weight matching at three parameter sets
    for a, b, k in (
        (1.6, 0.3, 0),
        (2.5, -0.2, 1),
        (-1.8660659830736148, 0.2332649334213164, 0),
    ):
        assert mass_identity_check(a, b, k, ctx) <= 1e-9

    # very-well-poised series vanishes at the cancelled pole
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

    # Poisson kernels: series vs closed form at random admissible points
    rng = np.random.default_rng(20260823)
    for _ in range(10):
        t = float(rng.uniform(-0.8, 0.8))
        x = float(rng.uniform(-0.99, 0.99))
        y = float(rng.uniform(-0.99, 0.99))
        closed = cqh_poisson(t, x, y, ctx2)
        series = cqh_poisson_series(t, x, y, ctx2)
        assert abs(series - closed) <= 1e-9 * (1.0 + abs(closed))
    for _ in range(10):
        t = float(rng.uniform(-0.8, 0.8))
        x = float(rng.uniform(-0.99, 0.99))
        y = float(rng.uniform(-0.99, 0.99))
        a = float(rng.uniform(-0.95, 0.95))
        b = float(rng.uniform(-0.95, 0.95))
        closed = asc_poisson(t, x, y, a, b, ctx2)
        series = asc_poisson_series(t, x, y, a, b, ctx2)
        assert abs(series - closed) <= 1e-9 * (1.0 + abs(closed))


def test_05_spectral_suite() -> None:
    ctx = QContext(0.5)
    ctx2 = ctx.squared()
    q = ctx.q
    Q = q * q
    sigma = 1.5

    # eigenvector residuals of the two geometric ladders
    rep = build_rep(ctx, 0.0, 200)
    M = element(rep, "rho_tau_inf", SphericalParams(tau=TAU))
    for entry in eigen_basis(ctx, TAU, 200, 12):
        resid = M @ entry.vector - entry.eigenvalue * entry.vector
        assert float(np.linalg.norm(resid)) <= 1e-9 * float(np.linalg.norm(entry.vector))

    # six extreme truncation eigenvalues sit on the ladder heads
    vals = np.linalg.eigvalsh(M)
    assert np.allclose(vals[:3], [-1.0, -Q, -(Q**2)], atol=1e-6)
    assert np.allclose(vals[-3:], [q ** (2 * TAU) * Q**2, q ** (2 * TAU) * Q, q ** (2 * TAU)], atol=1e-6)

    # Gram = identity to 1e-8 for all four families, indices <= 15
    nm = 16

    # family 1: continuous q-Hermite, orthonormal in base q^2
    spec1 = aw_measure(AWParams(0.0, 0.0, 0.0, 0.0, ctx2))
    norms1 = np.array([math.sqrt(qpoch(Q, ctx2, n)) for n in range(nm)])
    g1 = gram_under_measure(spec1, lambda x: cqh_all(nm - 1, x, ctx2) / norms1)
    assert np.max(np.abs(g1 - np.eye(nm))) <= 1e-8

    # family 2: q-Charlier under its discrete moment functional
    a_ch = q ** (2 * TAU)
    L = MomentFunctional("L", ctx, TAU)
    norms2 = np.array(
        [
            q ** (-2 * k)
            * qpoch(Q, ctx2, k)
            * qpoch(-(q ** (2 - 2 * TAU)), ctx2, k)
            * qpoch(-(q ** (2 * TAU)), ctx2)
            for k in range(nm)
        ]
    )
    g2 = np.empty((nm, nm))
    for k in range(nm):
        for l in range(k + 1):
            val = moment_apply(
                L,
                lambda x, k=k: q_charlier(k, x, a_ch, ctx2),
                lambda x, l=l: q_charlier(l, x, a_ch, ctx2),
            )
            g2[k, l] = g2[l, k] = val / math.sqrt(norms2[k] * norms2[l])
    assert np.max(np.abs(g2 - np.eye(nm))) <= 1e-8

    # family 3: orthonormal Al-Salam-Chihara at the ladder parameters
    s_par, t_par = q**sigma, q**TAU
    spec3 = aw_measure(AWParams(q * t_par / s_par, -q / (s_par * t_par), 0.0, 0.0, ctx2))
    assert len(spec3.masses) == 2
    g3 = gram_under_measure(spec3, lambda x: asc_orthonormal(nm - 1, x, s_par, t_par, ctx2))
    assert np.max(np.abs(g3 - np.eye(nm))) <= 1e-8

    # family 4: four-parameter family via its recurrence coefficients
    params4 = thm6_params(TAU, sigma, ctx)
    spec4 = aw_measure(params4)
    assert len(spec4.masses) == 2
    coeffs4 = aw_jacobi(params4)
    g4 = gram_under_measure(
        spec4, lambda x: orthonormal_polys(coeffs4, nm - 1, np.array([x]))[:, 0]
    )
    assert np.max(np.abs(g4 - np.eye(nm))) <= 1e-8

    # phase independence of the covariant elements' trace samples
    for name, params in (
        ("cocentral", None),
        ("gamma_star_gamma", None),
        ("rho_tau_inf", SphericalParams(tau=TAU)),
    ):
        samples = trace_samples(ctx, name, [0.0, 0.0, 1.0], 120, params, 12)
        assert float(np.var(samples.real)) <= 1e-10
        assert float(np.max(np.abs(samples.imag))) <= 1e-10
    # the two-parameter element oscillates in the angle by design; its
    # phase average is the invariant quantity, and the library's own grid
    # gives it too
    p_ts = SphericalParams(tau=TAU, sigma=sigma)
    m0 = np.mean(trace_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 120, p_ts, 8))
    m1 = np.mean(trace_samples(ctx, "rho_tau_sigma", [0.0, 1.0], 120, p_ts, 8, offset=0.45))
    assert abs(m1 - m0) <= 1e-10 * (1.0 + abs(m0))
    m2 = haar_trace(ctx, "rho_tau_sigma", [0.0, 1.0], 120, p_ts)
    assert abs(m2 - m0) <= 1e-10 * (1.0 + abs(m0))


def test_06_structural_suite() -> None:
    report = verify_structure(QContext(0.5), TAU, 1.5, 150)
    assert report.relations <= 1e-10
    assert report.factorization <= 1e-10
    assert report.shifts <= 1e-10
    assert report.recursion <= 1e-10


def test_07_diagonal_element_moment_bridge() -> None:
    ctx = QContext(0.5)
    cfg = VerifyConfig(ctx=ctx, N=80, poly_set=monomials(6), tol=1e-9)
    report = verify("gamma", cfg)
    for row in report.rows:
        assert row.rel_err <= 1e-9, (row.label, row.rel_err)
    assert report.rows[0].trace_side == pytest.approx(1.0, abs=1e-12)


def test_08_degree_24_trace_vs_measure() -> None:
    # only the truncation policy limits the degree
    start = time.perf_counter()
    ctx = QContext(0.8)
    cfg = VerifyConfig(ctx=ctx, tau=TAU, sigma=1.5, N=300, poly_set=monomials(24), tol=1e-7)
    for theorem in ("thm4", "thm5", "thm6", "gamma"):
        report = verify(theorem, cfg)
        assert report.rows[-1].label == "x^24"
        for row in report.rows:
            assert row.rel_err <= 1e-7, (theorem, row.label, row.rel_err)
    assert time.perf_counter() - start < 60.0

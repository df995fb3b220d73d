"""Truncated generator representation for quantum SU(2) and its Haar trace.

The *-algebra with generators a, g and relations

    ag = q ga,   ag* = q g*a,   gg* = g*g,
    a*a + g*g = 1,   aa* + q^2 g*g = 1

acts on an orthonormal basis e_0, e_1, ... through the family of
irreducible representations labeled by a phase angle:

    a e_n = sqrt(1 - q^{2n}) e_{n-1},        g e_n = e^{i phi} q^n e_n.

The Haar functional of a polynomial in the generators is the phase average
of the weighted trace with density diag(q^{2p}), scaled by (1 - q^2).
Everything here works with the leading (size+1)-dimensional block, so the
last rows of products are boundary-corrupted and get excluded from checks.

Both generators are a shift times a diagonal, so every distinguished element
has at most five nonzero diagonals.  All operator arithmetic here runs in
band storage, one diagonal per offset over a scalar angle or a whole vector
of them: the elements and their powers, the structural checks and the
ladder actions on eigenvectors.  ``element`` densifies the band at one angle
and ``build_rep`` keeps the dense generator matrices as the public dense
view.  The diagonalizing callers take the band's real symmetric gauge
instead: at angle 0 every element is similar to a real symmetric matrix
through diag(c^n), c = 1 or i.

Distinguished self-adjoint elements:

``cocentral``
    (a + a*)/2, half the character of the defining corepresentation.
``gamma_star_gamma``
    g*g, diagonal with entries q^{2n}.
``rho_tau_inf``
    i q^tau (a*g - g*a) - (1 - q^{2tau}) g*g, whose spectrum is the pair of
    geometric ladders {-q^{2k}} and {q^{2tau+2k}}.
``rho_tau_sigma``
    the two-parameter element whose spectral measure is an Askey-Wilson
    measure in base q^2; rescaled by 2 q^{sigma+tau-1} it converges to
    ``rho_tau_inf`` at rate O(q^sigma).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, TruncationPolicyError
from .qseries import QContext, SeriesSpec, phi_rs, qpoch
from .spectral import check_truncation, min_truncation

__all__ = [
    "SphericalParams",
    "TruncRep",
    "build_rep",
    "ELEMENT_NAMES",
    "element",
    "op_D",
    "haar_moments",
    "haar_trace",
    "haar_trace_samples",
    "moment_trace",
    "EigenBasisEntry",
    "eigen_basis",
    "eigvec_poly",
    "eigvec_components",
    "eigvec_norm_sq",
    "d_coeff",
    "spectral_trace",
    "StructureReport",
    "verify_structure",
]

ELEMENT_NAMES = ("cocentral", "gamma_star_gamma", "rho_tau_inf", "rho_tau_sigma")

# basis-index reach of each element; degree-d polynomials corrupt the last
# reach*d rows of the truncation
_ELEMENT_REACH = {
    "cocentral": 1,
    "gamma_star_gamma": 0,
    "rho_tau_inf": 1,
    "rho_tau_sigma": 2,
}


@dataclass(frozen=True)
class SphericalParams:
    """Parameters (tau, sigma) selecting a spherical-type element.

    ``sigma = None`` refers to the limiting element ``rho_tau_inf``.
    """

    tau: float
    sigma: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau):
            raise DomainError("tau must be finite")
        if self.sigma is not None and not math.isfinite(self.sigma):
            raise DomainError("sigma must be finite or None")


@dataclass(frozen=True)
class TruncRep:
    """Truncated generator matrices at a fixed phase angle."""

    ctx: QContext
    phi: float
    size: int
    alpha: np.ndarray
    gamma: np.ndarray


def build_rep(ctx: QContext, phi: float, size: int) -> TruncRep:
    """Matrices of the two generators on basis states 0..size."""
    if size < 1:
        raise DomainError("size must be at least 1")
    q = ctx.q
    n = np.arange(size + 1)
    alpha = np.zeros((size + 1, size + 1), dtype=complex)
    alpha[n[:-1], n[1:]] = np.sqrt(1.0 - q ** (2 * n[1:]))
    gamma = np.diag(np.exp(1j * phi) * q**n).astype(complex)
    return TruncRep(ctx=ctx, phi=phi, size=size, alpha=alpha, gamma=gamma)


# i^o for o mod 4, exact: complex powers of 1j leave roundoff in the zero parts
_QUARTER_TURNS = (1.0, 1j, -1.0, -1j)


class _Band(dict):
    """Truncated (size+1)-square matrices stored by diagonals.

    ``band[o][..., i]`` is ``M[i, i + o]``, exactly zero where ``i + o``
    leaves 0..size; a leading axis, where present, holds one matrix per
    phase angle and broadcasts.  Those zeros let the shifts below wrap
    around, and make products sum over the indices 0..size only, so they
    equal the truncated dense products, boundary rows included.
    """

    def __add__(self, other: _Band) -> _Band:
        out = _Band(self)
        for o, v in other.items():
            out[o] = out[o] + v if o in out else v
        return out

    def __sub__(self, other: _Band) -> _Band:
        return self + -1.0 * other

    def __rmul__(self, c) -> _Band:
        return _Band({o: c * v for o, v in self.items()})

    def __matmul__(self, other: _Band | np.ndarray) -> _Band | np.ndarray:
        if not isinstance(other, _Band):
            # (Mv)[i] collects M[i, i + o] v[i + o]
            return sum(x * np.roll(other, -o, axis=-1) for o, x in self.items())
        # (XY)[i, i + a + b] collects X[i, i + a] Y[i + a, i + a + b]
        out = _Band()
        for a, x in self.items():
            for b, y in other.items():
                c = a + b
                if abs(c) < x.shape[-1]:
                    term = x * np.roll(y, -a, axis=-1)
                    out[c] = out[c] + term if c in out else term
        return out

    @property
    def H(self) -> _Band:
        # M*[i, i - o] = conj(M[i - o, i])
        return _Band({-o: np.roll(v.conj(), o, axis=-1) for o, v in self.items()})

    def dense(self) -> np.ndarray:
        """The matrix of a band at a single angle."""
        return self._fill(self, complex)

    def real_dense(self) -> np.ndarray:
        """The real symmetric matrix D* M D, D = diag(c^n), of a Hermitian band at one angle.

        D* M D multiplies diagonal o by c^o, an exact entry of the table
        1, i, -1, -i, so the entries keep every bit.  The gauge c = 1 or
        c = i is the one that leaves every imaginary part exactly zero; at
        angle 0 each distinguished element has one.  D is unitary, so the
        eigenvalues are those of M and |eigenvector entries| are unchanged.
        A band that neither gauge makes real raises DomainError: no
        imaginary part is ever dropped.
        """
        for turn in (0, 1):
            gauged = {o: _QUARTER_TURNS[turn * o % 4] * v for o, v in self.items()}
            if not any(np.any(v.imag) for v in gauged.values()):
                return self._fill({o: v.real for o, v in gauged.items()}, float)
        raise DomainError("band is not real in the gauge diag(c^n) for c = 1 or c = i")

    @staticmethod
    def _fill(diagonals: dict, dtype) -> np.ndarray:
        n = next(iter(diagonals.values())).shape[-1]
        out = np.zeros((n, n), dtype=dtype)
        for o, v in diagonals.items():
            i = np.arange(max(0, -o), min(n, n - o))
            out[i, i + o] = v[i]
        return out


def _generators(ctx: QContext, phi: float | np.ndarray, size: int) -> tuple[_Band, _Band]:
    """Bands of a and g on basis states 0..size at the angle or angles ``phi``."""
    if size < 1:
        raise DomainError("size must be at least 1")
    q = ctx.q
    n = np.arange(size + 1)
    A = _Band({1: np.append(np.sqrt(1.0 - q ** (2 * n[1:])), 0.0)})
    C = _Band({0: np.multiply.outer(np.exp(1j * phi), q**n)})
    return A, C


def _element_band(
    ctx: QContext, name: str, params: SphericalParams | None, phi: float | np.ndarray, size: int
) -> _Band:
    """Diagonals of a distinguished element at the angle or angles ``phi``."""
    q = ctx.q
    A, C = _generators(ctx, phi, size)
    Ah, Ch = A.H, C.H
    if name == "cocentral":
        M = 0.5 * (A + Ah)
    elif name == "gamma_star_gamma":
        M = Ch @ C
    elif name == "rho_tau_inf":
        if params is None:
            raise DomainError("rho_tau_inf needs SphericalParams")
        t = params.tau
        M = 1j * q**t * (Ah @ C - Ch @ A) - (1.0 - q ** (2 * t)) * (Ch @ C)
    elif name == "rho_tau_sigma":
        if params is None or params.sigma is None:
            raise DomainError("rho_tau_sigma needs SphericalParams with sigma")
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
    else:
        raise DomainError(f"unknown element {name!r}")
    return M


def element(rep: TruncRep, name: str, params: SphericalParams | None = None) -> np.ndarray:
    """Dense matrix of a distinguished self-adjoint element at the angle of ``rep``."""
    return _element_band(rep.ctx, name, params, rep.phi, rep.size).dense()


def op_D(ctx: QContext, size: int) -> np.ndarray:
    """Diagonal of the trace density, q^{2p} for p = 0..size."""
    return ctx.q ** (2.0 * np.arange(size + 1))


def _poly_degree(coeffs: np.ndarray) -> int:
    nz = np.nonzero(coeffs)[0]
    return int(nz[-1]) if nz.size else 0


def haar_moments(
    ctx: QContext,
    name: str,
    degree: int,
    size: int,
    params: SphericalParams | None = None,
    tol: float = 1e-9,
    phi_count: int | None = None,
    phi_offset: float = 0.0,
) -> np.ndarray:
    """Weighted moments (1 - q^2) tr(D element^k), k = 0..degree, per phase.

    Returns a complex array of shape (phi_count, degree + 1).  The Haar
    functional is linear, so every polynomial of degree at most ``degree``
    has the samples ``moments @ coeffs``.  The element is built once in
    band storage for the whole grid and its powers E^k = E^{k-1} E stay
    there, the half-bandwidth growing by the element's reach per power, so
    the cost is O(phi_count * size * degree^2).  The default grid is the
    4*degree + 4 uniform angles starting at ``phi_offset``.  The truncation
    size is checked against the geometric-tail policy at the reach of
    degree-``degree`` powers before any work happens; that policy is the
    only limit on the degree.
    """
    if name not in ELEMENT_NAMES:
        raise DomainError(f"unknown element {name!r}")
    reach = _ELEMENT_REACH[name]
    try:
        check_truncation(size, reach * degree, tol, ctx.q)
    except TruncationPolicyError:
        raise TruncationPolicyError(
            f"truncation size {size} below policy minimum "
            f"{min_truncation(reach * degree, tol, ctx.q)} for {name} at degree {degree} "
            f"(reach {reach}), tol {tol:g}, q {ctx.q:g}"
        ) from None
    if phi_count is None:
        phi_count = 4 * degree + 4
    if phi_count < 1:
        raise DomainError("phi_count must be positive")
    weights = (1.0 - ctx.q**2) * op_D(ctx, size)
    phi = phi_offset + 2.0 * math.pi * np.arange(phi_count) / phi_count
    E = _element_band(ctx, name, params, phi, size)
    moments = np.zeros((phi_count, degree + 1), dtype=complex)
    moments[:, 0] = weights.sum()
    P = E
    for k in range(1, degree + 1):
        if k > 1:
            P = P @ E
        if 0 in P:  # odd powers of cocentral have no main diagonal
            moments[:, k] = P[0] @ weights
    return moments


def haar_trace_samples(
    ctx: QContext,
    name: str,
    coeffs,
    size: int,
    params: SphericalParams | None = None,
    tol: float = 1e-9,
    phi_count: int | None = None,
    phi_offset: float = 0.0,
) -> np.ndarray:
    """Weighted traces (1 - q^2) tr(D p(element)) at each phase grid point.

    ``coeffs`` are polynomial coefficients in ascending order; the samples
    are ``coeffs`` applied to :func:`haar_moments` at the degree of p, so
    the default grid 4*deg(p) + 4 and truncation policy are the ones
    documented there.

    For cocentral, gamma_star_gamma and rho_tau_inf the samples are
    phase-independent up to roundoff (diagonal phase unitaries carry one
    angle into another and commute with the trace density).  For
    rho_tau_sigma the samples genuinely oscillate in 2*phi and only their
    average is meaningful; the average is still offset-independent because
    the integrand is a trigonometric polynomial the grid resolves exactly.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    deg = _poly_degree(coeffs)
    moments = haar_moments(ctx, name, deg, size, params, tol, phi_count, phi_offset)
    return moments @ coeffs[: deg + 1]


def moment_trace(coeffs, moments: np.ndarray) -> float:
    """Haar functional of p(element): the phase average of its samples.

    ``moments`` comes from :func:`haar_moments` at no less than the degree
    of p.  The average of a self-adjoint element's traces is real; an
    imaginary residue means the grid did not resolve it.
    """
    coeffs = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "b")
    total = complex(np.mean(moments[:, : coeffs.size] @ coeffs))
    if abs(total.imag) > 1e-8 * (1.0 + abs(total.real)):
        raise ConvergenceError(f"phase average left imaginary residue {total.imag:g}")
    return float(total.real)


def haar_trace(
    ctx: QContext,
    name: str,
    coeffs,
    size: int,
    params: SphericalParams | None = None,
    tol: float = 1e-9,
    phi_count: int | None = None,
) -> float:
    """Haar functional of p(element) by phase-averaged weighted trace.

    The phase average is a trapezoid rule; the integrand is a trigonometric
    polynomial of degree at most 2*deg(p), so the default grid integrates
    it exactly and an explicit grid too coarse for it is refused.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    deg = _poly_degree(coeffs)
    _check_phase_grid(name, deg, phi_count)
    return moment_trace(coeffs, haar_moments(ctx, name, deg, size, params, tol, phi_count))


def _check_phase_grid(name: str, degree: int, phi_count: int | None) -> None:
    """Refuse an explicit grid whose phase average of degree-``degree`` traces is inexact.

    Only rho_tau_sigma has phase-dependent traces; they hold the harmonics
    e^{i m phi} for even |m| <= 2*degree, which a trapezoid grid of M points
    integrates exactly iff lcm(M, 2) > 2*degree.
    """
    if name != "rho_tau_sigma" or phi_count is None or phi_count < 1:
        return
    if math.lcm(phi_count, 2) <= 2 * degree:
        raise DomainError(
            f"a phase grid of {phi_count} points aliases {name} at degree {degree}; "
            f"lcm(points, 2) must exceed {2 * degree}"
        )


def _branch_lambda(branch: int, k: int, tau: float, q: float) -> float:
    if branch not in (1, -1):
        raise DomainError("branch must be +1 or -1")
    if k < 0:
        raise DomainError("k must be nonnegative")
    return q ** (2 * tau + 2 * k) if branch == 1 else -(q ** (2 * k))


def eigvec_components(
    branch: int, k: int, tau: float, ctx: QContext, size: int
) -> np.ndarray:
    """Real coefficient sequence p_0..p_size of the rho_tau_inf eigenvector.

    Stable per-branch evaluation: the terminating 2phi1 is summed over
    j <= min(n, k) with the n-dependent prefactor folded in iteratively.
    Once the prefactor underflows to exact zero the true component is far
    below double range and is reported as 0.
    """
    q = ctx.q
    Q = q * q
    lam = _branch_lambda(branch, k, tau, q)
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


def eigvec_poly(
    n: int, branch: int, k: int, tau: float, ctx: QContext, form: int | None = None
) -> float:
    """Single component p_n(lambda) through one of its two 2phi1 forms.

        form 1:  q^{-n tau} q^{n(n-1)/2} (q^2;q^2)_n^{-1/2}
                 2phi1(q^{-2n}, q^{2 tau}/lambda; 0; q^2, -q^2 lambda)
        form 2:  (-q^tau)^n q^{n(n-1)/2} (q^2;q^2)_n^{-1/2}
                 2phi1(q^{-2n}, -1/lambda; 0; q^2, q^{2-2tau} lambda)

    By default the form terminating through its lambda-dependent slot is
    chosen (1 on the positive branch, 2 on the negative), which is the
    numerically stable pairing.  The mismatched pairing terminates through
    q^{-2n} instead and cancels catastrophically, so it is only available
    for n <= 25; agreement of the two forms is an extended-precision fact.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    lam = _branch_lambda(branch, k, tau, q)
    if form is None:
        form = 1 if branch == 1 else 2
    if form not in (1, 2):
        raise DomainError("form must be 1, 2, or None")
    stable = (form == 1 and branch == 1) or (form == 2 and branch == -1)
    if not stable and n > 25:
        raise DomainError("mismatched form/branch pairing is unstable past n = 25")
    pre = q ** (0.5 * n * (n - 1)) / math.sqrt(qpoch(Q, ctx2, n))
    if pre == 0.0:
        return 0.0
    if form == 1:
        pre *= q ** (-n * tau)
        spec = SeriesSpec((Q ** (-n), q ** (2 * tau) / lam), (0.0,), -(q**2) * lam, ctx2)
    else:
        pre *= (-(q**tau)) ** n
        spec = SeriesSpec((Q ** (-n), -1.0 / lam), (0.0,), q ** (2 - 2 * tau) * lam, ctx2)
    return float(pre * phi_rs(spec).real)


def eigvec_norm_sq(branch: int, k: int, tau: float, ctx: QContext) -> float:
    """Closed form of sum_n p_n(lambda)^2 for the rho_tau_inf eigenvector."""
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    _branch_lambda(branch, k, tau, q)
    if branch == 1:
        return (
            q ** (-2 * k)
            * qpoch(Q, ctx2, k)
            * qpoch(-(q ** (2 + 2 * tau)), ctx2, k)
            * qpoch(-(q ** (-2 * tau)), ctx2)
        )
    return (
        q ** (-2 * k)
        * qpoch(Q, ctx2, k)
        * qpoch(-(q ** (2 - 2 * tau)), ctx2, k)
        * qpoch(-(q ** (2 * tau)), ctx2)
    )


@dataclass(frozen=True)
class EigenBasisEntry:
    """One rho_tau_inf eigenvector of the truncated representation."""

    branch: int
    k: int
    eigenvalue: float
    norm_sq: float
    vector: np.ndarray


def eigen_basis(
    ctx: QContext,
    tau: float,
    size: int,
    k_max: int,
    phi: float = 0.0,
    branches: tuple[int, ...] = (1, -1),
) -> list[EigenBasisEntry]:
    """Eigenvectors v_lambda = sum_n i^n e^{i n phi} p_n(lambda) e_n.

    Components past ``size`` are dropped; for the closed-form ``norm_sq``
    to describe the truncated vector, size must comfortably exceed the
    index where components fall below working precision.
    """
    out = []
    for branch in branches:
        for k in range(k_max + 1):
            out.append(
                EigenBasisEntry(
                    branch=branch,
                    k=k,
                    eigenvalue=_branch_lambda(branch, k, tau, ctx.q),
                    norm_sq=eigvec_norm_sq(branch, k, tau, ctx),
                    vector=_phased_eigvec(branch, k, tau, ctx, size, phi),
                )
            )
    return out


def _phased_eigvec(
    branch: int, k: int, tau: float, ctx: QContext, size: int, phi: float
) -> np.ndarray:
    """Components i^n e^{i n phi} p_n(lambda), n = 0..size, of a rho_tau_inf eigenvector."""
    n = np.arange(size + 1)
    return (1j**n) * np.exp(1j * n * phi) * eigvec_components(branch, k, tau, ctx, size)


def d_coeff(ctx: QContext, tau: float, branch1: int, k1: int, branch2: int, k2: int) -> float:
    """Closed form of sum_n q^{2n} p_n(lambda_1) p_n(lambda_2).

    This is the matrix coefficient of the trace density between two
    eigenvectors; the phases cancel, so it does not depend on the angle.
    """
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    _branch_lambda(branch1, k1, tau, q)
    _branch_lambda(branch2, k2, tau, q)
    if branch1 == branch2 and k1 < k2:
        k1, k2 = k2, k1
    if branch1 == -1 and branch2 == -1:
        return (
            qpoch(-(q ** (2 * tau + 2)), ctx2)
            * qpoch(Q, ctx2, k1)
            * qpoch(-(q ** (2 - 2 * tau)), ctx2, k2)
        )
    if branch1 == 1 and branch2 == 1:
        return (
            qpoch(-(q ** (2 - 2 * tau)), ctx2)
            * qpoch(Q, ctx2, k1)
            * qpoch(-(q ** (2 + 2 * tau)), ctx2, k2)
        )
    if branch1 == 1:  # normalize to (negative, positive) order
        branch1, k1, branch2, k2 = branch2, k2, branch1, k1
    return (
        qpoch(Q, ctx2)
        * qpoch(-(q ** (2 - 2 * tau)), ctx2, k1)
        * qpoch(-(q ** (2 + 2 * tau)), ctx2, k2)
    )


def spectral_trace(ctx: QContext, tau: float, coeffs, tol: float = 1e-12) -> float:
    """Haar functional of p(rho_tau_inf) summed over the two spectral ladders.

    The diagonal ratios d_coeff / norm_sq collapse to the weights
    q^{2k} / (1 + q^{2 tau}) and q^{2 tau + 2k} / (1 + q^{2 tau}), giving

        (1 - q^2) / (1 + q^{2 tau}) *
            sum_k q^{2k} [ p(-q^{2k}) + q^{2 tau} p(q^{2 tau + 2k}) ].
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    q = ctx.q
    Q = q * q
    pval = np.polynomial.polynomial.polyval
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    total = 0.0
    qk = 1.0
    k = 0
    while True:
        term = qk * (
            pval(-qk, coeffs) + q ** (2 * tau) * pval(q ** (2 * tau) * qk, coeffs)
        )
        total += term
        qk *= Q
        k += 1
        if qk * scale * (2.0 + q ** (2 * tau)) / (1.0 - Q) < 0.01 * tol:
            break
        if k > ctx.max_terms:
            raise ConvergenceError("spectral ladder sum did not close")
    return (1.0 - Q) / (1.0 + q ** (2 * tau)) * total


@dataclass(frozen=True)
class StructureReport:
    """Worst-case deviations of the defining structure on a truncation.

    All checks stay away from the boundary rows that truncation corrupts:
    a degree-d product of generators is trusted on rows 0..N-d-2 only, so
    the relations and the factorization (both degree 2) drop the last three
    rows, and the vector identities compare leading components.
    """

    relations: float
    factorization: float
    shifts: float
    recursion: float

    @property
    def max_deviation(self) -> float:
        return max(self.relations, self.factorization, self.shifts, self.recursion)


def _shift_ops(A: _Band, C: _Band, q: float, t: float) -> tuple[_Band, ...]:
    # ladder combinations moving the spectral parameter tau by one
    Ah, Ch = A.H, C.H
    al = q**0.5 * A + 1j * q ** (t + 0.5) * C
    be = 1j * q**0.5 * Ch + q ** (t - 0.5) * Ah
    ga = -(q ** (t + 0.5)) * A + 1j * q**0.5 * C
    de = -1j * q ** (t + 0.5) * Ch + q ** (-0.5) * Ah
    return al, be, ga, de


def verify_structure(
    ctx: QContext,
    tau: float,
    sigma: float,
    size: int,
    phi: float = 0.7,
    k_max: int = 3,
) -> StructureReport:
    """Numerically confirm relations, factorization, shifts and recursion."""
    if size < 40:
        raise DomainError("size too small for meaningful boundary margins")
    q = ctx.q
    A, C = _generators(ctx, phi, size)
    Ah, Ch = A.H, C.H
    eye = _Band({0: np.ones(size + 1)})

    blk = slice(0, size - 3)  # rows 0..N-4 are exact for degree-2 products
    rel = 0.0
    for dev in (
        A @ C - q * (C @ A),
        A @ Ch - q * (Ch @ A),
        C @ Ch - Ch @ C,
        Ah @ A + Ch @ C - eye,
        A @ Ah + q**2 * (Ch @ C) - eye,
    ):
        rel = max(rel, float(np.max(np.abs(dev.dense()[blk, blk]))))

    # factorization of the shifted rho_tau_sigma into tau-ladder operators
    R = _element_band(ctx, "rho_tau_sigma", SphericalParams(tau=tau, sigma=sigma), phi, size)
    al1, be1, _, _ = _shift_ops(A, C, q, tau + 1.0)
    _, _, ga0, de0 = _shift_ops(A, C, q, tau)
    lhs = 2.0 * q ** (tau + sigma) * R - (q ** (2 * sigma - 1) + q ** (2 * tau + 1)) * eye
    rhs = (be1 - q ** (sigma - 1) * al1) @ (ga0 + q**sigma * de0)
    fac = float(np.max(np.abs((lhs - rhs).dense()[blk, blk])))

    lead = slice(0, size - 19)

    # the shift targets and the recursion revisit eigenvectors: 26 distinct of 45
    @functools.lru_cache(maxsize=None)
    def vec(branch: int, k: int, t: float) -> np.ndarray:
        return _phased_eigvec(branch, k, t, ctx, size, phi)

    zero = np.zeros(size + 1, dtype=complex)
    al, be, ga, de = _shift_ops(A, C, q, tau)
    ie_plus, ie_minus = np.exp(1j * phi) * 1j, np.exp(-1j * phi) * 1j
    shift = 0.0
    for branch in (1, -1):
        for k in range(k_max + 1):
            lam = _branch_lambda(branch, k, tau, q)
            v = vec(branch, k, tau)
            scale = float(np.linalg.norm(v))
            pos = branch == 1
            # each ladder carries v to a multiple of an eigenvector at tau -/+ 1
            for op, c, tgt in (
                (
                    al,
                    ie_plus * q ** (0.5 - tau) * (1 + lam),
                    vec(1, k, tau - 1) if pos else (vec(-1, k - 1, tau - 1) if k else zero),
                ),
                (be, ie_minus * q**0.5, vec(1, k + 1, tau - 1) if pos else vec(-1, k, tau - 1)),
                (
                    ga,
                    ie_plus * q**0.5 * (q ** (2 * tau) - lam),
                    (vec(1, k - 1, tau + 1) if k else zero) if pos else vec(-1, k, tau + 1),
                ),
                (
                    de,
                    -ie_minus * q ** (0.5 + tau),
                    vec(1, k, tau + 1) if pos else vec(-1, k + 1, tau + 1),
                ),
            ):
                shift = max(shift, float(np.linalg.norm((op @ v - c * tgt)[lead])) / scale)

    rec = 0.0
    for branch, k in ((-1, 0), (-1, 1), (1, 0)):
        lam = _branch_lambda(branch, k, tau, q)
        v = vec(branch, k, tau)
        v_dn = vec(branch, k + 1, tau)
        v_up = vec(branch, k - 1, tau) if k else zero
        lhs_v = 2.0 * (R @ v)
        rhs_v = (
            q * np.exp(-2j * phi) * v_dn
            + np.exp(2j * phi) / q * (1 - q ** (-2 * tau) * lam) * (1 + lam) * v_up
            + lam * q ** (1 - tau) * (q**-sigma - q**sigma) * v
        )
        rec = max(
            rec, float(np.linalg.norm((lhs_v - rhs_v)[lead])) / float(np.linalg.norm(v))
        )

    return StructureReport(relations=rel, factorization=fac, shifts=shift, recursion=rec)

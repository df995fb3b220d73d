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
The average is a trapezoid rule, exact on any grid that resolves the
trace's harmonics, and ``haar_moments`` always derives the smallest such
grid from the element and the degree: the traces of the covariant
elements (cocentral, gamma_star_gamma, rho_tau_inf) do not depend on the
angle, so one angle, 0, in real arithmetic; those of rho_tau_sigma hold
even harmonics up to 2*degree, so the least M with lcm(M, 2) > 2*degree.

Both generators are a shift times a diagonal, so every distinguished element
has at most five nonzero diagonals.  All operator arithmetic here runs in
band storage, one diagonal per offset over a scalar angle or a whole vector
of them: the elements and their powers (formed up to half the degree; each
higher moment is the main diagonal of a product of two of them), the
structural checks and the ladder actions on eigenvectors.  ``element``
densifies the band at one angle and ``build_rep`` the generator bands, as
the public dense view.  The diagonalizing callers go through
``_band_spectrum``: at angle 0 every element is similar to a real symmetric
matrix through diag(c^n), c = 1 or i, and LAPACK sees only the leading
block of that gauge that carries an entry above eps * max|M| / (number of
diagonals).  Past it the band is diagonal to working precision (entries
carrying g decay like q^n), so each later index is its own eigenpair, and
what is dropped has 2-norm at most eps * max|M|.  A band that stores only
odd-offset diagonals (cocentral, never decoupling) is chiral: it couples
even indices to odd ones only, and LAPACK gets one SVD of its even-odd
block, about half the order, in place of the whole eigenproblem.

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

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from . import qseries
from .errors import ConvergenceError, DomainError, TruncationPolicyError
from .qseries import QContext, SeriesSpec, _check_power_range, _coeff_list, phi_rs, qpoch
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

# basis-index reach of each element; degree-d polynomials corrupt the last
# reach*d rows of the truncation
_ELEMENT_REACH = {
    "cocentral": 1,
    "gamma_star_gamma": 0,
    "rho_tau_inf": 1,
    "rho_tau_sigma": 2,
}

ELEMENT_NAMES = tuple(_ELEMENT_REACH)


class _SphericalFields(NamedTuple):
    tau: float
    sigma: float | None = None


class SphericalParams(_SphericalFields):
    """Parameters (tau, sigma) selecting a spherical-type element.

    ``sigma = None`` refers to the limiting element ``rho_tau_inf``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, tau: float, sigma: float | None = None) -> "SphericalParams":
        if not math.isfinite(tau):
            raise DomainError("tau must be finite")
        if sigma is not None and not math.isfinite(sigma):
            raise DomainError("sigma must be finite or None")
        return super().__new__(cls, tau, sigma)


class TruncRep(NamedTuple):
    """Truncated generator matrices at a fixed phase angle."""

    ctx: QContext
    phi: float
    size: int
    alpha: np.ndarray
    gamma: np.ndarray


def build_rep(ctx: QContext, phi: float, size: int) -> TruncRep:
    """Matrices of the two generators on basis states 0..size: :func:`_generators` densified."""
    A, C = _generators(ctx, phi, size)
    return TruncRep(ctx=ctx, phi=phi, size=size, alpha=A.dense(), gamma=C.dense())


# i^o for o mod 4, exact: complex powers of 1j leave roundoff in the zero parts
_QUARTER_TURNS = (1.0, 1j, -1.0, -1j)


def _shift(v: np.ndarray, s: int) -> np.ndarray:
    """``v`` moved ``s`` places down its last axis: out[..., i] = v[..., i + s], 0 past either end."""
    if s == 0:
        return v
    out = np.zeros_like(v)
    if s > 0:
        out[..., :-s] = v[..., s:]
    else:
        out[..., -s:] = v[..., :s]
    return out


class _Band(dict):
    """Truncated (size+1)-square matrices stored by diagonals.

    ``band[o][..., i]`` is ``M[i, i + o]``, exactly zero where ``i + o``
    leaves 0..size; a leading axis, where present, holds one matrix per
    phase angle and broadcasts.  Those zeros, and the zeros :func:`_shift`
    brings in past the ends, make products sum over the indices 0..size
    only, so they equal the truncated dense products, boundary rows
    included.
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
            return sum(x * _shift(other, o) for o, x in self.items())
        # (XY)[i, i + a + b] collects X[i, i + a] Y[i + a, i + a + b]
        out = _Band()
        for a, x in self.items():
            for b, y in other.items():
                c = a + b
                if abs(c) < x.shape[-1]:
                    term = x * _shift(y, a)
                    out[c] = out[c] + term if c in out else term
        return out

    @property
    def H(self) -> _Band:
        # M*[i, i - o] = conj(M[i - o, i])
        return _Band({-o: _shift(v.conj(), -o) for o, v in self.items()})

    def dense(self) -> np.ndarray:
        """The matrix of a band at a single angle."""
        return self._fill(self, complex)

    def max_abs(self, rows: int) -> float:
        """max |M[i, j]| over the leading ``rows`` x ``rows`` block, read off the diagonals."""
        # diagonal o holds M[i, i + o]; both indices below rows bound i
        parts = [np.abs(v[max(0, -o): rows - max(0, o)]) for o, v in self.items() if abs(o) < rows]
        return float(np.max(np.concatenate(parts))) if parts else 0.0

    def diag_of_product(self, other: _Band) -> np.ndarray | None:
        """Main diagonal of ``self @ other`` without forming the product; None if it has none."""
        # (XY)[i, i] collects X[i, i + a] Y[i + a, i]
        terms = [x * _shift(other[-a], a) for a, x in self.items() if -a in other]
        return sum(terms) if terms else None

    def real_gauge(self) -> _Band:
        """The real band D* M D, D = diag(c^n), of a band that has one.

        D* M D multiplies diagonal o by c^o, an exact entry of the table
        1, i, -1, -i, so the entries keep every bit.  The gauge c = 1 or
        c = i is the one that leaves every imaginary part of the whole band
        exactly zero; at angle 0 each distinguished element has one.  D is
        unitary and diagonal, so eigenvalues, |eigenvector entries| and the
        main diagonal of every power are those of M.  A band that neither
        gauge makes real raises DomainError: no imaginary part is ever
        dropped.
        """
        for turn in (0, 1):
            gauged = {o: _QUARTER_TURNS[turn * o % 4] * v for o, v in self.items()}
            if not any(np.any(v.imag) for v in gauged.values()):
                return _Band({o: v.real for o, v in gauged.items()})
        raise DomainError("band is not real in the gauge diag(c^n) for c = 1 or c = i")

    def real_dense(self, rows: int | None = None) -> np.ndarray:
        """The real symmetric matrix of :meth:`real_gauge` for a Hermitian band at one angle.

        Only its leading ``rows`` x ``rows`` block (all of it by default) is
        filled.
        """
        return self._fill({o: v[:rows] for o, v in self.real_gauge().items()}, float)

    @staticmethod
    def _fill(diagonals: dict, dtype) -> np.ndarray:
        n = next(iter(diagonals.values())).shape[-1]
        out = np.zeros((n, n), dtype=dtype)
        for o, v in diagonals.items():
            i = np.arange(max(0, -o), min(n, n - o))
            out[i, i + o] = v[i]
        return out


def _band_spectrum(M: _Band, ctx: QContext | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of a Hermitian band at angle 0 and, given ``ctx``, their trace weights.

    The weight of a unit eigenvector v is (1 - q^2) sum_n q^{2n} v_n^2.  The
    coupled size m is one plus the largest index touched by an entry with
    |entry| > eps * max|M| / (number of diagonals), read from the diagonals.
    LAPACK gets the leading m x m block of the real gauge
    (``_Band.real_dense``).  Every index n >= m is the eigenpair (M[n, n], e_n)
    with weight (1 - q^2) q^{2n}.  The dropped entries E satisfy
    ||E||_2 <= eps * max|M|, so the split adds no error beyond LAPACK's own
    backward-error bound.  Head and tail merge by a stable sort.

    A band that stores only odd-offset diagonals (cocentral) couples each
    index to indices of the other parity only, and its head goes to
    :func:`_chiral_spectrum`, one SVD of half the order.  Every other head
    goes to ``eigh`` with weights and ``eigvalsh`` without; when nothing
    decouples (m is the whole order) that is the same LAPACK call on the
    same matrix as a full diagonalization.
    """
    n = next(iter(M.values())).shape[-1]
    mags = {o: np.abs(v) for o, v in M.items()}
    cut = np.finfo(float).eps * max(float(a.max()) for a in mags.values()) / len(mags)
    m = 0
    for o, a in mags.items():
        big = np.flatnonzero(a > cut)
        if big.size:
            m = max(m, int(big[-1]) + max(o, 0) + 1)
    head = M.real_dense(m)
    tail = M[0].real[m:] if 0 in M else np.zeros(n - m)
    dens = None if ctx is None else op_D(ctx, n - 1)
    if all(o % 2 for o in M):
        vals, weights = _chiral_spectrum(head, dens)
    elif dens is None:
        vals, weights = np.linalg.eigvalsh(head), None
    else:
        vals, vecs = np.linalg.eigh(head)
        weights = (vecs**2).T @ dens[:m]
    vals = np.concatenate((vals, tail))
    if weights is None:
        return np.sort(vals, kind="stable"), None
    q = ctx.q
    weights = (1.0 - q * q) * np.concatenate((weights, dens[m:]))
    order = np.argsort(vals, kind="stable")
    return vals[order], weights[order]


def _chiral_spectrum(
    head: np.ndarray, dens: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues, and given ``dens`` their sums dens @ v^2, of a chiral symmetric matrix.

    ``head`` couples only indices of opposite parity, so in even/odd order
    it is [[0, B], [B^T, 0]] with B = head[0::2, 1::2], ceil(m/2) x floor(m/2).
    From B = U diag(s) V^T (Golub & Van Loan, Matrix Computations, 8.6) its
    eigenpairs are +-s_i with vectors (u_i, +-v_i) / sqrt(2) on the even and
    odd indices, both of sum (dens_even @ u_i^2 + dens_odd @ v_i^2) / 2,
    and for odd m one more, the exact 0 with U's last column on the even
    indices.  The values come as -s, the zero mode, s: unsorted.
    """
    B = head[0::2, 1::2]
    if dens is None:
        s, weights = np.linalg.svd(B, compute_uv=False), None
    else:
        U, s, Vh = np.linalg.svd(B)
        m = head.shape[0]
        even = dens[0:m:2] @ U**2
        pair = 0.5 * (even[: s.size] + Vh**2 @ dens[1:m:2])
        weights = np.concatenate((pair, even[s.size :], pair))
    return np.concatenate((-s, np.zeros(B.shape[0] - s.size), s)), weights


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
        _check_power_range(q, min(t, 2.0 * t), tau=t)
        M = 1j * q**t * (Ah @ C - Ch @ A) - (1.0 - q ** (2 * t)) * (Ch @ C)
    elif name == "rho_tau_sigma":
        if params is None or params.sigma is None:
            raise DomainError("rho_tau_sigma needs SphericalParams with sigma")
        t, s = params.tau, params.sigma
        _check_power_range(q, -max(abs(t), abs(s)), tau=t, sigma=s)
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


def _finite_coeff_list(coeffs, route: str = "trace") -> list:
    """``coeffs`` through :func:`_coeff_list`; ConvergenceError if one is not finite."""
    coeffs = _coeff_list(coeffs)
    if not all(map(math.isfinite, coeffs)):
        raise ConvergenceError(f"{route} coefficients {coeffs} are not finite")
    return coeffs


def _poly_degree(coeffs) -> int:
    """Index of the last nonzero coefficient of a 1-D list or array; 0 if there is none."""
    degree = len(coeffs) - 1
    while degree > 0 and not coeffs[degree]:
        degree -= 1
    return degree


def haar_moments(
    ctx: QContext,
    name: str,
    degree: int,
    size: int,
    params: SphericalParams | None = None,
    tol: float = 1e-9,
) -> np.ndarray:
    """Weighted moments (1 - q^2) tr(D element^k), k = 0..degree, per phase.

    Returns a complex array of shape (M, degree + 1).  The Haar functional
    is linear, so every polynomial of degree at most ``degree`` has the
    samples ``moments @ coeffs``.  The grid is the M uniform angles from 0
    of :func:`_exact_phase_grid`, the smallest on which their average is
    exact: one angle for the three covariant elements, whose traces do not
    depend on it, and the least M with lcm(M, 2) > 2*degree for
    rho_tau_sigma (7 at degree 6).  The single angle 0 runs in real
    arithmetic on the band's real gauge (:meth:`_Band.real_gauge`), which
    leaves the main diagonal of every power as it is; those moments have
    an exactly zero imaginary part.

    The element is built once in band storage for the whole grid and its
    moments come from :func:`_band_moments`.  The truncation size is
    checked against the geometric-tail policy at the reach of
    degree-``degree`` powers before any work happens; that policy is the
    only limit on the degree.  Powers that leave the float range raise
    ConvergenceError once, on the finished moments, without a numpy
    RuntimeWarning.
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
    points = _exact_phase_grid(name, degree)
    phi = 2.0 * math.pi * np.arange(points) / points
    E = _element_band(ctx, name, params, phi, size)
    if points == 1:
        E = E.real_gauge()
    moments = _band_moments(E, degree, (1.0 - ctx.q**2) * op_D(ctx, size), points)
    if not np.isfinite(moments).all():
        raise ConvergenceError(
            f"moments of {name} through degree {degree} are not finite: "
            "powers left the float range"
        )
    return moments


def _band_moments(E: _Band, degree: int, weights: np.ndarray, rows: int) -> np.ndarray:
    """sum_n weights[n] [E^k]_nn for k = 0..degree, one row per angle of E's leading axis.

    Returns a complex array of shape (``rows``, degree + 1); ``rows`` is 1
    for a band without that axis.  The powers E^k = E^{k-1} E stay in band
    storage up to h = ceil(degree / 2), the half-bandwidth growing by E's
    own per power, and each later moment is read off the main diagonal of
    E^h E^{k-h} without forming that product; the cost is
    O(rows * size * degree^2).  Powers that leave the float range leave
    inf or nan in the moments, for the caller to refuse, and no warning.
    """
    moments = np.zeros((rows, degree + 1), dtype=complex)
    moments[:, 0] = weights.sum()
    half = (degree + 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [None, E]
        for k in range(2, half + 1):
            powers.append(powers[-1] @ E)
        for k in range(1, degree + 1):
            if k <= half:
                diag = powers[k].get(0)
            else:
                diag = powers[half].diag_of_product(powers[k - half])
            if diag is not None:  # odd powers of cocentral have no main diagonal
                moments[:, k] = diag @ weights
    return moments


def _exact_phase_grid(name: str, degree: int) -> int:
    """The smallest uniform phase grid on which degree-``degree`` traces average exactly.

    Only rho_tau_sigma has phase-dependent traces; they hold the harmonics
    e^{i m phi} for even |m| <= 2*degree, which a trapezoid grid of M points
    integrates exactly iff lcm(M, 2) > 2*degree.  The least such M is the
    least odd M > degree.
    """
    return 2 * ((degree + 1) // 2) + 1 if name == "rho_tau_sigma" else 1


def moment_trace(coeffs, moments: np.ndarray) -> float:
    """Haar functional of p(element): the phase average of its samples.

    ``moments`` comes from :func:`haar_moments` at no less than the degree
    of p; a polynomial of higher degree raises DomainError.  The average
    of a self-adjoint element's traces is real, and that grid resolves
    every harmonic, so an imaginary residue is rounding in powers that
    cancel far below their size; one above 1e-8 relative raises
    ConvergenceError, and so does a coefficient or an average that is not
    finite.
    """
    coeffs = _finite_coeff_list(coeffs)
    degree = _poly_degree(coeffs)
    if degree >= moments.shape[-1]:
        raise DomainError(
            f"polynomial of degree {degree} needs moments to at least that degree; "
            f"these reach degree {moments.shape[-1] - 1}"
        )
    total = complex(np.mean(moments[:, : degree + 1] @ coeffs[: degree + 1]))
    if not cmath.isfinite(total):
        raise ConvergenceError(f"phase average {total!r} is not finite: powers left the float range")
    if abs(total.imag) > 1e-8 * (1.0 + abs(total.real)):
        raise ConvergenceError(
            f"phase average left imaginary residue {total.imag:g}: "
            "rounding in cancelling powers"
        )
    return float(total.real)


def haar_trace(
    ctx: QContext,
    name: str,
    coeffs,
    size: int,
    params: SphericalParams | None = None,
    tol: float = 1e-9,
) -> float:
    """Haar functional of p(element) by phase-averaged weighted trace.

    The phase average is a trapezoid rule; the integrand is a trigonometric
    polynomial of degree at most 2*deg(p), and the grid of
    :func:`haar_moments` integrates it exactly. A coefficient that is not
    finite raises ConvergenceError before any element is built.
    """
    coeffs = _finite_coeff_list(coeffs)
    return moment_trace(coeffs, haar_moments(ctx, name, _poly_degree(coeffs), size, params, tol))


def _branch_lambda(branch: int, k: int, tau: float, q: float, lowest: float = math.inf) -> float:
    """The eigenvalue q^{2 tau + 2k} (branch +1) or -q^{2k} (branch -1).

    Every eigenvector formula takes tau in here, so this is where a tau is
    refused whose powers of q leave the float range: the eigenvalue's own,
    or the caller's, whose lowest exponent is ``lowest``.
    """
    if branch not in (1, -1):
        raise DomainError("branch must be +1 or -1")
    if k < 0:
        raise DomainError("k must be nonnegative")
    _check_power_range(q, min(lowest, 2 * tau + 2 * k if branch == 1 else 2 * k), tau=tau)
    return q ** (2 * tau + 2 * k) if branch == 1 else -(q ** (2 * k))


def eigvec_components(
    branch: int, k: int, tau: float, ctx: QContext, size: int
) -> np.ndarray:
    """Real coefficient sequence p_0..p_size of the rho_tau_inf eigenvector.

    Stable per-branch evaluation: the terminating 2phi1 is summed over
    j <= min(n, k) with the n-dependent prefactor folded in iteratively.
    Once the prefactor underflows to exact zero the true component is far
    below double range; it and every later component are reported as 0
    without being evaluated.
    """
    q = ctx.q
    Q = q * q
    lam = _branch_lambda(branch, k, tau, q, -tau if branch == 1 else min(tau, 2 - 2 * tau))
    Z = -(q**2) * lam if branch == 1 else q ** (2 - 2 * tau) * lam
    # prefactors up to the first exact zero; every later one is 0 as well
    pres = []
    pre = 1.0
    for n in range(size + 1):
        if pre == 0.0:
            break
        pres.append(pre)
        pre *= (q**-tau if branch == 1 else -(q**tau)) * q**n / math.sqrt(1.0 - Q ** (n + 1))
    # the j-sum for all n at once, term by term in the scalar order
    qn = np.array([q ** (-2 * n) for n in range(len(pres))])
    s = np.zeros(len(pres))
    c = np.ones(len(pres))
    for j in range(min(len(pres) - 1, k) + 1):
        s[j:] += c[j:]
        c[j:] *= (1.0 - qn[j:] * Q**j) * (1.0 - q ** (-2 * k) * Q**j) / (1.0 - Q ** (j + 1)) * Z
    out = np.zeros(size + 1)
    out[: len(pres)] = np.array(pres) * s
    return out


def eigvec_poly(n: int, branch: int, k: int, tau: float, ctx: QContext) -> float:
    """Single component p_n(lambda) through the 2phi1 form of its branch.

        branch +1:  q^{-n tau} q^{n(n-1)/2} (q^2;q^2)_n^{-1/2}
                    2phi1(q^{-2n}, q^{2 tau}/lambda; 0; q^2, -q^2 lambda)
        branch -1:  (-q^tau)^n q^{n(n-1)/2} (q^2;q^2)_n^{-1/2}
                    2phi1(q^{-2n}, -1/lambda; 0; q^2, q^{2-2tau} lambda)

    Each form terminates through its lambda-dependent slot on its own
    branch, which keeps it stable.  Both forms hold on both branches, but
    the other pairing terminates through q^{-2n} and cancels
    catastrophically; their agreement is an extended-precision fact.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    pre = q ** (0.5 * n * (n - 1)) / math.sqrt(qpoch(Q, ctx2, n))
    if pre == 0.0:
        # the component is 0, and no power of tau below is formed
        _branch_lambda(branch, k, tau, q)
        return 0.0
    lowest = min(-n * tau, 2 * tau) if branch == 1 else min(tau, n * tau, 2 - 2 * tau)
    lam = _branch_lambda(branch, k, tau, q, lowest)
    if branch == 1:
        pre *= q ** (-n * tau)
        spec = SeriesSpec((Q ** (-n), q ** (2 * tau) / lam), (0.0,), -(q**2) * lam, ctx2)
    else:
        pre *= (-(q**tau)) ** n
        spec = SeriesSpec((Q ** (-n), -1.0 / lam), (0.0,), q ** (2 - 2 * tau) * lam, ctx2)
    return float(pre * phi_rs(spec).real)


def eigvec_norm_sq(branch: int, k: int, tau: float, ctx: QContext) -> float:
    """Closed form of sum_n p_n(lambda)^2 for the rho_tau_inf eigenvector."""
    q = ctx.q
    lowest = min(2 + 2 * tau, -2 * tau) if branch == 1 else min(2 - 2 * tau, 2 * tau)
    _branch_lambda(branch, k, tau, q, lowest)
    if branch == 1:
        params = (q * q, -(q ** (2 + 2 * tau)), -(q ** (-2 * tau)))
    else:
        params = (q * q, -(q ** (2 - 2 * tau)), -(q ** (2 * tau)))
    vals = qpoch(params, ctx.squared(), [k, k, math.inf]).tolist()
    return math.prod(vals, start=q ** (-2 * k))


class EigenBasisEntry(NamedTuple):
    """One rho_tau_inf eigenvector of the truncated representation."""

    branch: int
    k: int
    eigenvalue: float
    norm_sq: float
    vector: np.ndarray


def eigen_basis(ctx: QContext, tau: float, size: int, k_max: int) -> list[EigenBasisEntry]:
    """Eigenvectors v_lambda = sum_n i^n p_n(lambda) e_n at angle 0, branch
    +1 and then -1, k = 0..k_max on each.

    At angle phi the eigenvector is v_lambda with component n times
    e^{i n phi}.  Components past ``size`` are dropped; for the closed-form
    ``norm_sq`` to describe the truncated vector, size must comfortably
    exceed the index where components fall below working precision.
    """
    phase = _eigvec_phase(size, 0.0)
    out = []
    for branch in (1, -1):
        for k in range(k_max + 1):
            out.append(
                EigenBasisEntry(
                    branch=branch,
                    k=k,
                    eigenvalue=_branch_lambda(branch, k, tau, ctx.q),
                    norm_sq=eigvec_norm_sq(branch, k, tau, ctx),
                    vector=phase * eigvec_components(branch, k, tau, ctx, size),
                )
            )
    return out


def _eigvec_phase(size: int, phi: float) -> np.ndarray:
    """Phases i^n e^{i n phi}, n = 0..size, of every rho_tau_inf eigenvector at one angle."""
    n = np.arange(size + 1)
    return (1j**n) * np.exp(1j * n * phi)


def d_coeff(ctx: QContext, tau: float, branch1: int, k1: int, branch2: int, k2: int) -> float:
    """Closed form of sum_n q^{2n} p_n(lambda_1) p_n(lambda_2).

    This is the matrix coefficient of the trace density between two
    eigenvectors; the phases cancel, so it does not depend on the angle.
    """
    q = ctx.q
    _branch_lambda(branch1, k1, tau, q, min(2 - 2 * tau, 2 + 2 * tau))
    _branch_lambda(branch2, k2, tau, q)
    if (branch1 == branch2 and k1 < k2) or branch1 > branch2:
        # same branch: larger k first; mixed: (negative, positive) order
        branch1, k1, branch2, k2 = branch2, k2, branch1, k1
    neg, pos = -(q ** (2 - 2 * tau)), -(q ** (2 + 2 * tau))
    # bases of (.;q^2)_inf, (.;q^2)_{k1} and (.;q^2)_{k2}, per branch pair
    params = {(-1, -1): (pos, q * q, neg), (1, 1): (neg, q * q, pos), (-1, 1): (q * q, neg, pos)}
    vals = qpoch(params[branch1, branch2], ctx.squared(), [math.inf, k1, k2]).tolist()
    return math.prod(vals, start=1.0)


def spectral_trace(ctx: QContext, tau: float, coeffs) -> float:
    """Haar functional of p(rho_tau_inf) summed over the two spectral ladders.

    The diagonal ratios d_coeff / norm_sq collapse to the weights
    q^{2k} / (1 + q^{2 tau}) and q^{2 tau + 2k} / (1 + q^{2 tau}), giving

        (1 - q^2) / (1 + q^{2 tau}) *
            sum_k q^{2k} [ p(-q^{2k}) + q^{2 tau} p(q^{2 tau + 2k}) ].

    The sum stops once a bound on the rest is below TAIL_TOL, or raises
    ConvergenceError past MAX_TERMS terms; so does a coefficient that is
    not finite, as on the other routes.
    """
    coeffs = np.array(_finite_coeff_list(coeffs, "spectral trace"))
    q = ctx.q
    _check_power_range(q, 2.0 * tau, tau=tau)
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
        if qk * scale * (2.0 + q ** (2 * tau)) / (1.0 - Q) < qseries.TAIL_TOL:
            break
        if k > qseries.MAX_TERMS:
            raise ConvergenceError("spectral ladder sum did not close")
    return float((1.0 - Q) / (1.0 + q ** (2 * tau)) * total)


class StructureReport(NamedTuple):
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


def verify_structure(ctx: QContext, tau: float, sigma: float, size: int) -> StructureReport:
    """Numerically confirm relations, factorization, shifts and recursion."""
    if size < 40:
        raise DomainError("size too small for meaningful boundary margins")
    q = ctx.q
    phi, k_max = 0.7, 3  # a generic angle, not a gauge's 0; eigenvectors k <= 3
    A, C = _generators(ctx, phi, size)
    Ah, Ch = A.H, C.H
    eye = _Band({0: np.ones(size + 1)})

    blk = size - 3  # rows 0..N-4 are exact for degree-2 products
    rel = 0.0
    for dev in (
        A @ C - q * (C @ A),
        A @ Ch - q * (Ch @ A),
        C @ Ch - Ch @ C,
        Ah @ A + Ch @ C - eye,
        A @ Ah + q**2 * (Ch @ C) - eye,
    ):
        rel = max(rel, dev.max_abs(blk))

    # factorization of the shifted rho_tau_sigma into tau-ladder operators
    R = _element_band(ctx, "rho_tau_sigma", SphericalParams(tau=tau, sigma=sigma), phi, size)
    al1, be1, _, _ = _shift_ops(A, C, q, tau + 1.0)
    _, _, ga0, de0 = _shift_ops(A, C, q, tau)
    lhs = 2.0 * q ** (tau + sigma) * R - (q ** (2 * sigma - 1) + q ** (2 * tau + 1)) * eye
    rhs = (be1 - q ** (sigma - 1) * al1) @ (ga0 + q**sigma * de0)
    fac = (lhs - rhs).max_abs(blk)

    lead = slice(0, size - 19)
    phase = _eigvec_phase(size, phi)

    # the shift targets and the recursion revisit eigenvectors: 26 distinct of 45
    @functools.lru_cache(maxsize=None)
    def vec(branch: int, k: int, t: float) -> np.ndarray:
        return phase * eigvec_components(branch, k, t, ctx, size)

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

"""Spectral data of truncated symmetric tridiagonal (Jacobi) operators.

Bounded self-adjoint operators appear here through their tridiagonal matrix
with respect to an orthonormal basis.  Truncating to the leading block and
diagonalizing yields approximate spectral nodes together with weights
(squared first components of the normalized eigenvectors), which converge
to the orthogonality measure of the associated polynomial family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, TruncationPolicyError

__all__ = [
    "JacobiCoeffs",
    "SpectralData",
    "spectral_data",
    "orthonormal_polys",
    "min_truncation",
    "check_truncation",
]


@dataclass(frozen=True)
class JacobiCoeffs:
    """Coefficient source for a half-infinite symmetric tridiagonal matrix.

    ``diag(m)`` is the (m, m) entry and ``offdiag(m)`` the (m, m+1) entry,
    both for m >= 0.  Off-diagonal entries must be nonzero so that the
    matrix is irreducible and the eigenvalues of any truncation are simple.
    """

    diag: Callable[[int], float]
    offdiag: Callable[[int], float]

    def arrays(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the leading ``size`` x ``size`` block."""
        if size < 1:
            raise DomainError("truncation size must be at least 1")
        d = np.array([float(self.diag(m)) for m in range(size)])
        e = np.array([float(self.offdiag(m)) for m in range(size - 1)])
        if size > 1 and np.any(e == 0.0):
            raise DomainError("off-diagonal entries must be nonzero")
        return d, e

    def dense(self, size: int) -> np.ndarray:
        d, e = self.arrays(size)
        return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@dataclass(frozen=True)
class SpectralData:
    """Eigen-decomposition summary of a truncated Jacobi matrix.

    ``nodes`` are the eigenvalues in ascending order, ``weights`` the squared
    first components of the orthonormal eigenvectors (they sum to 1 and
    discretize the orthogonality measure).  ``vectors`` holds the full
    eigenvector matrix, column i belonging to ``nodes[i]``, when requested.
    """

    nodes: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def orthonormal_polys(coeffs: JacobiCoeffs, n_max: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the orthonormal polynomials p_0..p_{n_max} attached to ``coeffs``.

    The family satisfies p_0 = 1 and

        x p_m(x) = e_m p_{m+1}(x) + d_m p_m(x) + e_{m-1} p_{m-1}(x),

    the recurrence read off the tridiagonal matrix.  Returns an array of
    shape (n_max + 1, len(x)).
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d, e = coeffs.arrays(n_max + 1)
    out = np.empty((n_max + 1, x.shape[0]))
    out[0] = 1.0
    if n_max >= 1:
        e0 = float(coeffs.offdiag(0))
        out[1] = (x - d[0]) / e0
        prev_e = e0
        for m in range(1, n_max):
            em = float(coeffs.offdiag(m))
            out[m + 1] = ((x - d[m]) * out[m] - prev_e * out[m - 1]) / em
            prev_e = em
    return out


def _weights_by_recurrence(coeffs: JacobiCoeffs, nodes: np.ndarray, size: int) -> np.ndarray:
    # Normalized eigenvector of the truncation at eigenvalue x_i is
    # (p_0(x_i), ..., p_{size-1}(x_i)) / sqrt(sum p_n(x_i)^2), so the squared
    # first component is 1 / sum_n p_n(x_i)^2.
    polys = orthonormal_polys(coeffs, size - 1, nodes)
    return 1.0 / np.sum(polys * polys, axis=0)


def spectral_data(
    coeffs: JacobiCoeffs, size: int, full_vectors: bool = False
) -> SpectralData:
    """Diagonalize the leading ``size`` x ``size`` truncation.

    With ``full_vectors`` the weights are squared first rows of the
    eigenvector matrix; otherwise only eigenvalues are computed and the
    weights come from the equivalent recurrence route 1 / sum_n p_n(x_i)^2.
    """
    mat = coeffs.dense(size)
    if full_vectors:
        nodes, vecs = np.linalg.eigh(mat)
        return SpectralData(nodes=nodes, weights=vecs[0] ** 2, vectors=vecs)
    nodes = np.linalg.eigvalsh(mat)
    return SpectralData(
        nodes=nodes, weights=_weights_by_recurrence(coeffs, nodes, size), vectors=None
    )


def min_truncation(degree: int, tol: float, q: float) -> int:
    """Smallest truncation size honoring the geometric-tail policy.

    Trace sums truncated at size N leave a tail of order q^{2(N - degree)}
    for integrands of polynomial degree ``degree``, so N must be at least
    degree + log(tol) / (2 log q).
    """
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0, 1)")
    if not 0.0 < tol < 1.0:
        raise DomainError("tol must lie in (0, 1)")
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    return degree + math.ceil(math.log(tol) / (2.0 * math.log(q)))


def check_truncation(size: int, degree: int, tol: float, q: float) -> None:
    """Raise TruncationPolicyError when ``size`` cannot meet ``tol``."""
    needed = min_truncation(degree, tol, q)
    if size < needed:
        raise TruncationPolicyError(
            f"truncation size {size} below policy minimum {needed} "
            f"for degree {degree}, tol {tol:g}, q {q:g}"
        )

"""Truncated symmetric tridiagonal (Jacobi) operators and their moments.

A measure's orthonormal polynomials satisfy a three-term recurrence, read
off as a Jacobi matrix J.  The measure's k-th moment is e_0^T J^k e_0
(Golub & Meurant, Matrices, Moments and Quadrature, 2010, ch. 4), discrete
masses included, and it reads only the leading k // 2 + 1 rows of J.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, TruncationPolicyError

__all__ = [
    "JacobiCoeffs",
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

    The entries are evaluated once each: :meth:`arrays` keeps those it has
    computed and grows them only by the indices it has not reached.  The
    same memo keeps the moments e_0^T J^k e_0 that :func:`_jacobi_moments`
    has computed, with the last Krylov vector J^j e_0 it reached, so a
    larger degree continues that pass.  Each growth swaps in one new tuple
    of entries, moments and vector, so concurrent callers at worst compute
    an entry or a moment twice and never see a torn state.  A call that
    raises, or finds a zero off-diagonal, keeps nothing it computed, so the
    next call raises again.  This entry memo is the only one: ``diag`` and
    ``offdiag`` may recompute a term they share.
    """

    diag: Callable[[int], float]
    offdiag: Callable[[int], float]
    # (diagonal, off-diagonal, moments 0..k, J^j e_0), each never mutated in place
    _entries: tuple = field(default=((), (), (), ()), init=False, repr=False, compare=False)

    def _grown(self, size: int) -> tuple:
        """The memo with entries through the leading ``size`` rows, not yet swapped in."""
        if size < 1:
            raise DomainError("truncation size must be at least 1")
        d, e, moments, v = entries = self._entries
        if len(d) >= size:
            return entries
        d += tuple(float(self.diag(m)) for m in range(len(d), size))
        grown = tuple(float(self.offdiag(m)) for m in range(len(e), size - 1))
        if 0.0 in grown:
            raise DomainError("off-diagonal entries must be nonzero")
        return d, e + grown, moments, v

    def arrays(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the leading ``size`` x ``size`` block."""
        entries = self._grown(size)
        if entries is not self._entries:
            object.__setattr__(self, "_entries", entries)
        d, e = entries[:2]
        return np.array(d[:size]), np.array(e[: size - 1])


def _offdiag_sqrt(e2: float, m: int) -> float:
    """e_m from e_m^2, refused unless finite and positive as for a positive measure."""
    if not (math.isfinite(e2) and e2 > 0.0):
        raise DomainError(f"Jacobi off-diagonal square e_{m}^2 = {e2!r} is not finite and positive")
    return math.sqrt(e2)


def _jacobi_moments(jacobi: JacobiCoeffs, degree: int) -> list[float]:
    """e_0^T J^k e_0 for k = 0..degree, in Python floats.

    With v = J^j e_0, moment 2j + 1 is v . Jv and moment 2j + 2 is
    Jv . Jv, J being symmetric: the split E^h E^(k-h) of
    ``qsu2rep._band_moments`` on the single row e_0.  v lives on rows 0..j,
    so only the leading degree // 2 + 1 rows of J enter, and a moment's
    value does not depend on ``degree``.  On so few rows lists skip numpy's
    per-call overhead, and a power past the float range gives inf or nan
    without a warning.

    The moments are kept in the memo of ``jacobi``: a degree they reach is
    a slice of them, and a larger one continues the pass from the kept v,
    so the values do not depend on the order in which degrees are asked.
    An odd degree's last step has its Jv cut by the row block, so it keeps
    that step's odd moment and the v before it, and a larger degree
    repeats the step on more rows.
    """
    moments = jacobi._entries[2]
    if len(moments) > degree:
        return list(moments[: degree + 1])
    d, e, moments, v = jacobi._grown(degree // 2 + 1)
    if not v:  # the first pass starts at e_0
        moments, v = (1.0,), (1.0,)
    block = e[: degree // 2]
    below, above = [0.0, *block], [*block, 0.0]  # J[i, i - 1] and J[i, i + 1], zero past the block
    moments = list(moments[: 2 * len(v) - 1])
    while len(moments) <= degree:
        x = [0.0, *v, 0.0, 0.0]  # x[i + 1] = v[i]
        w = [a * r + b * s + c * t for a, b, c, r, s, t in zip(below, d, above, x, x[1:], x[2:])]
        moments += [sum(map(operator.mul, v, w)), sum(map(operator.mul, w, w))]
        if len(w) == len(v):  # the block cut Jv: its square is not moment 2j + 2
            break
        v = w
    del moments[degree + 1 :]
    object.__setattr__(jacobi, "_entries", (d, e, tuple(moments), v))
    return moments


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
    for m in range(n_max):
        prev = e[m - 1] * out[m - 1] if m else 0.0
        out[m + 1] = ((x - d[m]) * out[m] - prev) / e[m]
    return out


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

"""Orthogonal polynomial families and their measures.

Four interlocking pieces:

* continuous q-Hermite polynomials, their weight and Poisson kernel;
* q-Charlier polynomials with the two discrete moment functionals that
  encode the diagonal-operator matrix elements;
* Al-Salam-Chihara polynomials (by their recurrence) with their
  Poisson kernel in closed very-well-poised form;
* the Askey-Wilson measure: normalization constant, continuous weight,
  and discrete masses for parameters outside the unit disc, assembled
  into a quadrature-ready MeasureSpec, and its Jacobi matrix.

Every closed form made of q-shifted factorials is built by a ``_*_form``
function that returns a :class:`~qhaar.qseries.Factorials`; the public
function evaluates that form alone, and a caller that needs several closed
forms joins their forms and evaluates them with one ``qpoch`` call.

Measures are normalized so the total mass is 1; that normalization is
re-verified at construction time and is one of the deeper consistency
checks on the mass-weight formulas.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import qseries
from .errors import ConvergenceError, DomainError
from .qseries import Factorials, QContext, SeriesSpec, _as_coeffs, _check_power_range, phi_rs
from .spectral import JacobiCoeffs, _offdiag_sqrt

__all__ = [
    "AWParams",
    "MeasureSpec",
    "MomentFunctional",
    "cqh",
    "cqh_all",
    "cqh_weight",
    "cqh_poisson",
    "cqh_poisson_series",
    "q_charlier",
    "moment_apply",
    "asc",
    "asc_all",
    "asc_orthonormal",
    "asc_poisson",
    "asc_poisson_series",
    "asc_mass_poisson_tq",
    "aw_h0",
    "aw_theta_weight",
    "aw_mass_weight",
    "aw_masses",
    "aw_jacobi",
    "aw_measure",
    "aw_integrate",
]

#: |e q^k| must exceed 1 by more than this to generate a discrete mass;
#: values inside the band are treated as the (measure-zero) boundary case.
MASS_EDGE_TOL = 1e-12


# ---------------------------------------------------------------------------
# continuous q-Hermite


def cqh_all(n_max: int, x, ctx: QContext) -> np.ndarray:
    """H_0..H_{n_max} at x (scalar or array) via the recurrence
    2x H_n = H_{n+1} + (1-q^n) H_{n-1}: the Al-Salam-Chihara recurrence at
    a = b = 0, where its extra terms are exact zeros and ones."""
    return asc_all(n_max, x, 0.0, 0.0, ctx)


def cqh(n: int, x: float, ctx: QContext) -> float:
    """Continuous q-Hermite polynomial H_n(x|q)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return float(cqh_all(n, x, ctx)[n])


def _unit_circle_point(x: float) -> complex:
    """e^{i theta} with x = cos theta, continued off [-1,1] as x + sqrt(x^2-1).

    Either branch works wherever the result is used: the expressions below
    are symmetric under z -> 1/z.
    """
    return complex(x) + cmath.sqrt(complex(x * x - 1.0))


def cqh_weight(x: float, ctx: QContext) -> float:
    """w(x|q) = (e^{2 i theta}, e^{-2 i theta}; q)_inf with x = cos theta."""
    if not -1.0 <= x <= 1.0:
        raise DomainError("cqh_weight needs x in [-1, 1]")
    z = _unit_circle_point(x)

    def assemble(vals: np.ndarray) -> float:
        w, w_bar = vals.tolist()
        return float((w * w_bar).real)

    return Factorials([z * z, z.conjugate() * z.conjugate()], assemble).evaluate(ctx)


def cqh_poisson(t: float, x: float, y: float, ctx: QContext) -> float:
    """Poisson kernel of the continuous q-Hermite family, closed form:

        (t^2;q)_inf / prod_{eps,eps'} (t e^{i(eps theta + eps' psi)};q)_inf

    for x = cos theta, y = cos psi, |t| < 1.
    """
    return _cqh_poisson_form(t, x, y).evaluate(ctx)


def _cqh_poisson_form(t: float, x: float, y: float) -> Factorials:
    if abs(t) >= 1.0:
        raise DomainError("cqh_poisson needs |t| < 1")
    z1 = _unit_circle_point(x)
    z2 = _unit_circle_point(y)

    def assemble(vals: np.ndarray) -> float:
        *factors, top = vals.tolist()
        denom = 1.0 + 0.0j
        for v in factors:
            denom *= v
        return float((top / denom).real)

    return Factorials(
        [t * w for w in (z1 * z2, z1 / z2, z2 / z1, 1.0 / (z1 * z2))] + [t * t], assemble
    )


def cqh_poisson_series(t: float, x: float, y: float, ctx: QContext) -> float:
    """Defining sum sum_n t^n H_n(x) H_n(y) / (q;q)_n, for x and y in [-1, 1]: the
    Al-Salam-Chihara series at a = b = 0, where its extra factors are exact ones."""
    return asc_poisson_series(t, x, y, 0.0, 0.0, ctx)


# ---------------------------------------------------------------------------
# q-Charlier and moment functionals


def q_charlier(n: int, x: float, a: float, ctx: QContext) -> float:
    """c_n(x; a; q) = 2phi1(q^-n, x; 0; q, -q^{n+1}/a)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if a == 0:
        raise DomainError("a must be nonzero")
    q = ctx.q
    _check_power_range(q, -n, n=n)
    spec = SeriesSpec((q ** (-n), x), (0.0,), -(q ** (n + 1)) / a, ctx)
    return float(phi_rs(spec).real)


class _MomentFunctionalFields(NamedTuple):
    kind: str
    ctx: QContext
    tau: float | None = None


class MomentFunctional(_MomentFunctionalFields):
    """Discrete moment functional on functions of x.

    kind "L":  L(p) = sum_n q^{2 n tau} q^{n(n-1)} / (q^2;q^2)_n * p(q^{-2n})
    kind "M":  M(p) = sum_n (-1)^n  q^{n(n-1)} / (q^2;q^2)_n * p(q^{-2n})

    Both live in base ctx.q (the squares are written out explicitly).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, kind: str, ctx: QContext, tau: float | None = None) -> "MomentFunctional":
        if kind not in ("L", "M"):
            raise DomainError(f"kind must be 'L' or 'M', got {kind!r}")
        if kind == "L" and tau is None:
            raise DomainError("kind 'L' requires tau")
        return super().__new__(cls, kind, ctx, tau)


def moment_apply(functional: MomentFunctional, p, p2=None) -> float:
    """Apply L or M to a polynomial (coefficient sequence) or callable.

    The coefficient q^{n(n-1)} decays faster than any polynomial growth of
    p(q^{-2n}); summation stops once two consecutive terms sit below
    TAIL_TOL / 100 while decreasing, or raises ConvergenceError past
    MAX_TERMS terms.

    The weight and the polynomial values separately leave double range long
    before their product does (q^{n(n-1)} underflows near n=34 for q=0.5),
    so the weight is carried as mantissa * 2^exponent and each term is
    reassembled with ldexp.  For a product of two large-degree factors pass
    them separately as ``p`` and ``p2``; each factor is folded into the
    mantissa before the next, keeping every intermediate finite as long as
    the individual factor values are.
    """
    ctx = functional.ctx
    q = ctx.q
    if functional.kind == "L":
        # each node's weight takes one more factor q^{2 tau}
        _check_power_range(q, 2.0 * functional.tau, tau=functional.tau)
    # a callable is applied as it is; coefficients are read by the rule of both routes
    polyval = np.polynomial.polynomial.polyval
    fn = p if callable(p) else lambda x, c=_as_coeffs(p): float(polyval(x, c))
    fn2 = p2 if p2 is None or callable(p2) else lambda x, c=_as_coeffs(p2): float(polyval(x, c))
    cutoff = 0.01 * qseries.TAIL_TOL
    # largest node representable: q^{-2n} < overflow threshold
    n_node_cap = int(700.0 / (-2.0 * math.log(q)))
    total = 0.0
    mant, exp = 1.0, 0  # weight = mant * 2^exp
    prev_small = None
    q2n = 1.0  # q^{2n}
    for n in range(qseries.MAX_TERMS):
        if n > n_node_cap:
            raise ConvergenceError(
                "moment functional nodes exceed double range before convergence"
            )
        x = q ** (-2 * n)
        try:
            v = mant * fn(x)
            if fn2 is not None:
                v, e2 = math.frexp(v)
                v *= fn2(x)
                exp_term = exp + e2
            else:
                exp_term = exp
        except OverflowError:
            raise ConvergenceError(
                f"moment functional factor overflowed at node index {n}; "
                "pass a large-degree product split across the two factor slots"
            ) from None
        if not math.isfinite(v):
            raise ConvergenceError(
                f"moment functional term overflowed at node index {n}"
            )
        try:
            term = math.ldexp(v, exp_term)
        except OverflowError:
            raise ConvergenceError(
                f"moment functional term overflowed at node index {n}"
            ) from None
        total += term
        if prev_small is not None and abs(term) <= cutoff and abs(term) <= prev_small:
            return total
        prev_small = abs(term) if abs(term) <= cutoff else None
        # update to n+1: multiply by q^{2 tau} (L) or -1 (M), then by
        # q^{2n} / (1 - q^{2n+2})
        if functional.kind == "L":
            mant *= q ** (2.0 * functional.tau)
        else:
            mant = -mant
        mant *= q2n / (1.0 - q2n * q * q)
        mant, de = math.frexp(mant)
        exp += de
        q2n *= q * q
    raise ConvergenceError(f"moment functional did not converge within {qseries.MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# Al-Salam-Chihara


def asc(n: int, x: float, a: float, b: float, ctx: QContext) -> float:
    """Al-Salam-Chihara polynomial p_n(x; a, b | q), defined by the terminating 3phi2

        a^{-n} (ab;q)_n 3phi2(q^{-n}, a e^{i theta}, a e^{-i theta}; ab, 0; q, q)

    and evaluated by the recurrence of :func:`asc_all`.  The series carries
    terms up to q^{-n(n-1)/2} in magnitude against a moderate sum, a
    cancellation no summation order avoids; the recurrence is stable on
    [-1, 1] and symmetric in a and b.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    return float(asc_all(n, x, a, b, ctx)[n])


def asc_all(n_max: int, x, a: float, b: float, ctx: QContext) -> np.ndarray:
    """p_0..p_{n_max} at x (scalar or array) via the three-term recurrence

        2x p_n = p_{n+1} + (a+b) q^n p_n + (1 - a b q^{n-1})(1 - q^n) p_{n-1}.

    The result has shape (n_max + 1,) + shape(x).  Each point runs the
    recurrence on Python floats: callers pass one or two points, where a
    numpy step per term would cost several times more.  A non-finite a, b
    or x raises DomainError.
    """
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(a) and math.isfinite(b) and np.isfinite(x).all()):
        raise DomainError(f"asc_all needs finite a, b and x, got a={a!r}, b={b!r}, x={x.tolist()!r:.40}")
    q = ctx.q
    cols = []
    for xv in x.ravel().tolist():
        x2 = 2.0 * xv
        p_prev, p = 1.0, x2 - (a + b)
        col = [p_prev, p]
        qn = q
        for _ in range(1, n_max):
            p_prev, p = p, (x2 - (a + b) * qn) * p - (1.0 - a * b * qn / q) * (1.0 - qn) * p_prev
            col.append(p)
            qn *= q
        cols.append(col[: n_max + 1])
    out = np.array(cols, dtype=float).reshape(x.size, n_max + 1)
    return out.T.reshape((n_max + 1,) + x.shape)


def asc_orthonormal(n_max: int, x, s: float, t: float, ctx: QContext) -> np.ndarray:
    """Orthonormal variants h_n(x; s, t | q) = p_n(x; q^{1/2} t/s, -q^{1/2}/(st)) /
    sqrt((q, -q s^{-2}; q)_n)."""
    if 0.0 in (s * s, s * t):
        raise DomainError(f"s * s and s * t must be nonzero, got s={s!r}, t={t!r}")
    q = ctx.q
    rq = math.sqrt(q)
    a = rq * t / s
    b = -rq / (s * t)
    p = asc_all(n_max, x, a, b, ctx)
    scale = 1.0
    qn = 1.0
    for n in range(1, n_max + 1):
        qn *= q
        scale *= (1.0 - qn) * (1.0 + qn / (s * s))
        p[n] /= math.sqrt(scale)
    return p


def asc_poisson_series(t: float, x: float, y: float, a: float, b: float, ctx: QContext) -> float:
    """Defining sum sum_k t^k p_k(x) p_k(y) / ((q, ab; q)_k), for x and y in [-1, 1].

    One loop in Python floats runs the recurrence of :func:`asc_all` at both
    points and the sum: the factor (1 - q^k)(1 - ab q^{k-1}) of (q, ab; q)_k
    is also the recurrence coefficient of step k, so it is formed once.

    The same loop stops at the least n whose tail bound is below TAIL_TOL.
    On [-1, 1] the generating function bounds |p_k(x; a, b)| by
    P_k = p_k(1; -|a|, -|b|), so term k is at most m_k = |t|^k P_k^2 / (q, |ab|; q)_k;
    the recurrence at x = 1 keeps P_{k+1} / P_k >= 1 nonincreasing, hence also
    rho_k = m_{k+1} / m_k, and the terms past n sum to at most m_n rho_n / (1 - rho_n).
    log m_n is carried, as m_n passes the float range near q = 1.  x or y off
    [-1, 1], or |ab| >= 1, raises DomainError; over MAX_TERMS terms, ConvergenceError.
    """
    if not (-1.0 <= x <= 1.0 and -1.0 <= y <= 1.0 and abs(a * b) < 1.0):
        raise DomainError(f"asc_poisson_series needs x and y in [-1, 1] and |ab| < 1, "
                          f"got x={x!r}, y={y!r}, a={a!r}, b={b!r}")
    q, log_tol, at = ctx.q, math.log(qseries.TAIL_TOL), abs(t)
    x2, y2, s, ab = 2.0 * float(x), 2.0 * float(y), a + b, a * b
    s_abs, ab_abs = abs(a) + abs(b), abs(ab)
    r = 2.0 + s_abs  # P_1 / P_0
    log_m, qn = 0.0, 1.0  # log m_n and q^n
    u_prev, u = 1.0, x2 - s  # p_0(x), p_1(x)
    v_prev, v = 1.0, y2 - s
    total, tk, poch = 1.0, 1.0, 1.0  # the sum through term n, t^n and (q, ab; q)_n
    # (q, ab; q)_k underflows to zero near q = 1 before the bound stops the loop
    try:
        for _ in range(qseries.MAX_TERMS):
            qn1 = qn * q
            bound_c = (1.0 - qn1) * (1.0 - ab_abs * qn)
            rho = at * r * r / bound_c
            if rho == 0.0:
                return total
            log_m_next = log_m + math.log(rho)
            # the tail bound is m_{n+1} / (1 - rho_n): test the cheap factor first
            if log_m_next < log_tol and rho < 1.0 and log_m_next - math.log1p(-rho) < log_tol:
                return total
            log_m = log_m_next
            r = 2.0 + s_abs * qn1 - bound_c / r
            # term k = n + 1; its ab q^{k-1} is ab q^k / q, as the tests' reference rounds it
            tk *= t
            c = (1.0 - ab * qn1 / q) * (1.0 - qn1)
            poch *= c
            total += tk * u * v / poch
            sq = s * qn1
            u_prev, u = u, (x2 - sq) * u - c * u_prev
            v_prev, v = v, (y2 - sq) * v - c * v_prev
            qn = qn1
    except ZeroDivisionError:
        raise ConvergenceError(f"Poisson series at t={t!r}, a={a!r}, b={b!r}: "
                               f"(q, ab; q)_k underflows at q={q!r}") from None
    raise ConvergenceError(
        f"Poisson series at t={t!r}, a={a!r}, b={b!r} needs over {qseries.MAX_TERMS} terms at q={q!r}"
    )


def _mass_ladder(e: float, q: float) -> range:
    """Indices k of the discrete masses parameter e generates: |e| q^k > 1 + MASS_EDGE_TOL."""
    k = 0
    while abs(e) * q**k > 1.0 + MASS_EDGE_TOL:
        k += 1
    return range(k)


def _asc_mass_location(e: float, k: int, q: float) -> float:
    return 0.5 * (e * q**k + 1.0 / (e * q**k))


def asc_mass_poisson_tq(k: int, a: float, b: float, ctx: QContext) -> float:
    """Poisson kernel at t = q on the k-th discrete mass of parameter a:

        P_k(a;b|q) = (a b q^k, b q / a; q)_inf / ((ab, a^{-2} q^{1-2k}; q)_inf)
                     * (q^{-k}, b q^{-k}/a, a^2 q^k; q)_k * q^k.

    Only |a| > 1 generates discrete masses, at the k of its mass ladder,
    |a| q^k > 1 + MASS_EDGE_TOL; any other a or k raises DomainError.
    """
    if not (k >= 0 and abs(a) * ctx.q**k > 1.0 + MASS_EDGE_TOL):  # k in _mass_ladder(a, q)
        raise DomainError(f"k={k!r} is off the mass ladder of a={a!r} at q={ctx.q!r}")
    return _asc_mass_poisson_tq_form(k, a, b, ctx).evaluate(ctx)


def _asc_mass_poisson_tq_form(k: int, a: float, b: float, ctx: QContext) -> Factorials:
    q = ctx.q

    def assemble(vals: np.ndarray) -> float:
        n1, n2, d1, d2, f1, f2, f3 = vals.real.tolist()
        return float(n1 * n2 / (d1 * d2) * (f1 * f2 * f3) * q**k)

    return Factorials(
        [a * b * q**k, b * q / a, a * b, q ** (1 - 2 * k) / (a * a),
         q ** (-k), b * q ** (-k) / a, a * a * q**k],
        assemble,
        [math.inf] * 4 + [k] * 3,
    )


def asc_poisson(t: float, x: float, y: float, a: float, b: float, ctx: QContext) -> float:
    """Al-Salam-Chihara Poisson kernel P_t(x, y; a, b | q), closed form.

    Two regimes:

    * x, y in [-1, 1], |t| < 1, ab < 1: the very-well-poised representation

        (a t z1, a t / z1, b t z2, b t / z2, t; q)_inf
        / ((t z1 z2, t z1/z2, t z2/z1, t/(z1 z2), a b t; q)_inf)
        * 8W7(a b t / q; t, b z1, b / z1, a z2, a / z2; q, t)

      with z1 = e^{i theta}, z2 = e^{i psi}.

    * x = y = a discrete mass point of parameter e in {a, b} with |e| > 1,
      |t| < e^2 q^{2k}: a terminating evaluation; at t = q exactly it reduces
      to asc_mass_poisson_tq.
    """
    return _asc_poisson_form(t, x, y, a, b, ctx).evaluate(ctx)


def _asc_poisson_form(
    t: float, x: float, y: float, a: float, b: float, ctx: QContext
) -> Factorials:
    q = ctx.q
    if a * b >= 1.0:
        raise DomainError("asc_poisson needs ab < 1")
    if t == 0.0:
        return Factorials([], lambda vals: 1.0)
    if a == 0.0 or b == 0.0:
        # the very-well-poised form divides by a and b; the series route
        # still covers these degenerate subfamilies
        raise DomainError("closed-form kernel needs a != 0 and b != 0")
    if abs(x) <= 1.0 and abs(y) <= 1.0:
        if abs(t) >= 1.0:
            raise DomainError("continuous regime needs |t| < 1")
        z1 = _unit_circle_point(x)
        z2 = _unit_circle_point(y)

        def continuous(vals: np.ndarray, sums: list) -> float:
            vals = vals.tolist()
            num = 1.0 + 0.0j
            for v in vals[:5]:
                num *= v
            den = vals[5]
            for v in vals[6:]:
                den *= v
            return float((num / den * sums[0]).real)

        return Factorials(
            [a * t * z1, a * t / z1, b * t * z2, b * t / z2, t + 0.0j,
             a * b * t + 0.0j, t * z1 * z2, t * z1 / z2, t * z2 / z1, t / (z1 * z2)],
            continuous,
            series=[(a * b * t / q, t, b * z1, b / z1, a * z2, a / z2, t)],
        )

    # discrete regime: locate x among the masses of a or b
    if abs(x - y) > 1e-9 * (1.0 + abs(x)):
        raise DomainError("off-diagonal Poisson values outside [-1,1] are not supported")
    for e, other in ((a, b), (b, a)):
        for k in _mass_ladder(e, q):
            if abs(x - _asc_mass_location(e, k, q)) <= 1e-9 * (1.0 + abs(x)):
                if not abs(t) < e * e * q ** (2 * k):
                    raise DomainError(
                        f"mass-point Poisson kernel needs |t| < e^2 q^(2k) = "
                        f"{e * e * q ** (2 * k):.6g}"
                    )
                if abs(t - q) <= 1e-15:
                    return _asc_mass_poisson_tq_form(k, e, other, ctx)
                return _asc_mass_point_form(t, k, e, other, ctx)
    raise DomainError(f"x={x!r} is not a discrete mass point of (a={a!r}, b={b!r})")


def _asc_mass_point_form(t: float, k: int, e: float, other: float, ctx: QContext) -> Factorials:
    """Poisson kernel at the k-th discrete mass of parameter e, t != q."""
    q = ctx.q

    def assemble(vals: np.ndarray, sums: list) -> float:
        p1, p2, n1, n2, d1, d2 = vals.real.tolist()
        pref, num, den = p1 * p2, n1 * n2, d1 * d2
        return float((pref * num / den * sums[0]).real)

    numer = (t, e * other * q**k, other * q ** (-k) / e, q ** (-k), e * e * q**k)
    return Factorials(
        [e * e * q**k * t, t * q ** (-k), e * other * t * q**k,
         other * t * q ** (-k) / e, e * other * t, t * q ** (-2 * k) / (e * e)],
        assemble,
        [k, k] + [math.inf] * 4,
        [(e * other * t / q, *numer, t)],
    )


# ---------------------------------------------------------------------------
# Askey-Wilson measure


class _AWParamsFields(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    ctx: QContext


class AWParams(_AWParamsFields):
    """Real Askey-Wilson parameters with all *signed* pairwise products < 1.

    The signed reading matches the positivity condition actually required
    of the measure: products of two negative parameters or two positive
    parameters must stay below 1, while a large negative product is
    harmless.  abcd is also kept away from q^{-2m} (poles of h0).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, a: float, b: float, c: float, d: float, ctx: QContext) -> "AWParams":
        vals = (a, b, c, d)
        if not all(map(math.isfinite, vals)):
            raise DomainError(f"parameters must be finite, got a, b, c, d = {vals!r}")
        names = "abcd"
        for i in range(4):
            for j in range(i + 1, 4):
                prod = vals[i] * vals[j]
                if not prod < 1.0:
                    raise DomainError(
                        f"pairwise product {names[i]}{names[j]} = {prod!r} must be < 1"
                    )
        return super().__new__(cls, a, b, c, d, ctx)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def aw_h0(a: float, b: float, c: float, d: float, ctx: QContext) -> float:
    """Normalization h0 = (abcd;q)_inf / (q, ab, ac, ad, bc, bd, cd; q)_inf."""
    return _aw_h0_form(a, b, c, d, ctx).evaluate(ctx)


def _aw_h0_form(a: float, b: float, c: float, d: float, ctx: QContext) -> Factorials:
    def assemble(vals: np.ndarray) -> float:
        num, den, *rest = vals.real.tolist()
        for v in rest:
            den *= v
        return float(num / den)

    return Factorials([a * b * c * d, ctx.q, a * b, a * c, a * d, b * c, b * d, c * d], assemble)


def aw_theta_weight(theta, a: float, b: float, c: float, d: float, ctx: QContext):
    """Continuous weight w(cos theta; a,b,c,d | q) for theta scalar or array.

    w = |(e^{2 i theta};q)_inf|^2 / prod_e |(e e^{i theta};q)_inf|^2 for the
    real parameters e in {a,b,c,d}.  A scalar theta runs as an array of
    one angle, so it gets the same last bits as inside any array.  A theta
    that is not finite raises DomainError, and so does a pole, an angle
    where some 1 - e q^k e^{i theta} is 0 (at theta = 0 or pi, a 0/0).
    """
    return _aw_theta_weight_form(theta, a, b, c, d).evaluate(ctx)


def _aw_theta_weight_form(theta, a: float, b: float, c: float, d: float) -> Factorials:
    th = np.asarray(theta, dtype=float)
    if not np.isfinite(th).all():
        raise DomainError(f"theta must be finite, got {theta!r}")
    z = np.exp(1j * th.reshape(-1))
    rows = np.stack([z * z] + [e * z for e in (a, b, c, d) if e != 0.0])

    def assemble(vals: np.ndarray):
        vals = vals.reshape(rows.shape)
        num = np.abs(vals[0]) ** 2
        den = np.ones_like(num)
        for v in vals[1:]:
            den *= np.abs(v) ** 2
        if not den.all():
            pole = float(th.flat[np.argmin(den)])
            raise DomainError(f"theta = {pole!r} is a pole of the weight at a, b, c, d = {a, b, c, d}")
        out = num / den
        return out.reshape(th.shape) if th.shape else float(out[0])

    return Factorials(rows, assemble)


def aw_mass_weight(e: float, others: Sequence[float], k: int, ctx: QContext) -> float:
    """Discrete mass weight at x_k = (e q^k + e^{-1} q^{-k})/2, |e q^k| > 1.

    With e in the first slot and (f, g, h) the remaining parameters,

        w_k = (e^{-2};q)_inf / ((q;q)_inf prod_p (e p; q)_inf (p/e; q)_inf)
              * (1 - e^2 q^{2k}) / (1 - e^2)
              * (e^2;q)_k / (q;q)_k * q^k e^{-k} * prod_p G_p(k),

    where G_p(k) = (e p;q)_k / ((e q/p;q)_k p^k) and the p -> 0 limit of
    G_p is (-1)^k e^{-k} q^{-k(k+1)/2}; the zero-parameter variants cover
    the Al-Salam-Chihara (two zeros) and q-Hermite (three zeros) cases.
    Includes the (1 - e^2 q^{2k})/(1 - e^2) factor required for the weights
    to sum correctly.  A k off the mass ladder of e, where |e| q^k >
    1 + MASS_EDGE_TOL fails, raises DomainError; so does every k of an e
    with |e| <= 1, which generates no mass.
    """
    if not (k >= 0 and abs(e) * ctx.q**k > 1.0 + MASS_EDGE_TOL):  # k in _mass_ladder(e, q)
        raise DomainError(f"k={k!r} is off the mass ladder of e={e!r} at q={ctx.q!r}")
    return _aw_mass_weight_form(e, others, k, ctx).evaluate(ctx)


def _aw_mass_weight_form(e: float, others: Sequence[float], k: int, ctx: QContext) -> Factorials:
    q = ctx.q
    nonzero = [p for p in others if p != 0.0]
    infinite = [e ** (-2.0), q] + [v for p in nonzero for v in (e * p, p / e)]
    finite = [e * e, q] + [v for p in nonzero for v in (e * p, e * q / p)]

    def assemble(vals: np.ndarray) -> float:
        vals = iter(vals.real.tolist())
        c_inf = next(vals) / next(vals)
        for p in nonzero:
            c_inf /= next(vals) * next(vals)
        inv_e = 1.0 / e
        val = c_inf * (1.0 - e * e * q ** (2 * k)) / (1.0 - e * e)
        val *= next(vals) / next(vals)
        val *= q**k * inv_e**k
        for p in others:
            if p != 0.0:
                val *= next(vals) / (next(vals) * p**k)
            else:
                val *= (-1.0) ** k * inv_e**k * q ** (-0.5 * k * (k + 1))
        return float(val)

    return Factorials(
        infinite + finite, assemble, [math.inf] * len(infinite) + [k] * len(finite)
    )


def aw_jacobi(params: AWParams) -> JacobiCoeffs:
    """Jacobi matrix of the normalized Askey-Wilson measure (KLS 2010, eq. 14.1.5).

    d_n = (a + 1/a - A_n - C_n) / 2, e_n^2 = A_n C_{n+1} / 4, C_0 = 0 (printed 0/0
    at abcd = q^2).  The parameter of largest modulus plays a, so d_n does not
    cancel a large 1/a (the smallest there costs thm6 2.8e-13 at q = 0.1).
    The entries recompute A_n and C_n (n >= 1) where they need them; the
    returned matrix's entry memo (:class:`JacobiCoeffs`) is the only memo.
    """
    a, b, c, d = sorted(params.as_tuple(), key=abs, reverse=True)
    if a == 0.0:
        raise DomainError("aw_jacobi needs a nonzero parameter")
    Q = params.ctx.q
    abcd = a * b * c * d

    def A(n: int) -> float:
        num = (1 - a * b * Q**n) * (1 - a * c * Q**n) * (1 - a * d * Q**n) * (1 - abcd * Q ** (n - 1))
        return num / (a * (1 - abcd * Q ** (2 * n - 1)) * (1 - abcd * Q ** (2 * n)))

    def C(n: int) -> float:
        num = a * (1 - Q**n) * (1 - b * c * Q ** (n - 1)) * (1 - b * d * Q ** (n - 1))
        num *= 1 - c * d * Q ** (n - 1)
        return num / ((1 - abcd * Q ** (2 * n - 2)) * (1 - abcd * Q ** (2 * n - 1)))

    shift = a + 1.0 / a
    return JacobiCoeffs(
        diag=lambda n: 0.5 * (shift - A(n) - (C(n) if n else 0.0)),
        offdiag=lambda n: _offdiag_sqrt(0.25 * A(n) * C(n + 1), n),
    )


class MeasureSpec(NamedTuple):
    """Quadrature-ready normalized measure: continuous part on (-1,1) plus
    discrete masses at |x| > 1.

    ``theta_nodes``/``theta_weights`` integrate the continuous part:
    sum_i theta_weights[i] * f(cos(theta_nodes[i])) ~ (2 pi h0)^{-1}
    int_0^pi f(cos theta) w(cos theta) d theta.  ``masses`` holds
    (x_k, normalized weight) pairs.  Total mass is 1 within 1e-9.
    """

    masses: tuple
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    total_mass: float = 1.0


def aw_masses(params: AWParams) -> tuple:
    """Masses (x_k, w_k / h0) of the normalized measure, one per rung k of each
    parameter's mass ladder: all factorials from one ``qpoch`` call, or none
    when there is no mass."""
    q = params.ctx.q
    vals = params.as_tuple()
    ladder = [(e, i, k) for i, e in enumerate(vals) for k in _mass_ladder(e, q)]
    if not ladder:
        return ()

    def normalize(h0, *weights):
        return tuple((_asc_mass_location(e, k, q), w / h0) for (e, _, k), w in zip(ladder, weights))

    forms = [_aw_mass_weight_form(e, vals[:i] + vals[i + 1 :], k, params.ctx) for e, i, k in ladder]
    return Factorials.join([_aw_h0_form(*vals, params.ctx), *forms], normalize).evaluate(params.ctx)


def aw_measure(params: AWParams) -> MeasureSpec:
    """Build the normalized Askey-Wilson measure for the given parameters.

    The continuous part is a Gauss-Legendre rule in theta whose node count
    doubles from 64 until the computed total mass stabilizes within 1e-10;
    construction fails if the final total strays from 1 by more than 1e-9
    (a strong joint check on h0, the weight, and the mass formula).
    """
    a, b, c, d = params.as_tuple()
    h0 = aw_h0(a, b, c, d, params.ctx)
    masses = aw_masses(params)
    mass_sum = sum(w for _, w in masses)

    n = 64
    prev = None
    while n <= 8192:
        t, wt = np.polynomial.legendre.leggauss(n)
        theta = 0.5 * math.pi * (t + 1.0)
        wvals = aw_theta_weight(theta, a, b, c, d, params.ctx)
        weights = 0.5 * math.pi * wt * wvals / (2.0 * math.pi * h0)
        total = float(np.sum(weights)) + mass_sum
        if prev is not None and abs(total - prev) <= 1e-10:
            if abs(total - 1.0) > 1e-9:
                raise ConvergenceError(
                    f"total mass {total!r} deviates from 1 beyond 1e-9"
                )
            return MeasureSpec(masses, theta, weights, total)
        prev = total
        n *= 2
    raise ConvergenceError("Gauss-Legendre refinement did not stabilize the total mass")


def aw_integrate(spec: MeasureSpec, f) -> float:
    """Integrate a polynomial, given by its ascending coefficients, against the measure.

    The polynomial is evaluated at all nodes, and at all mass points, in
    one vectorized ``polyval`` call.  Coefficients are read by the rule of
    both routes, ``_as_coeffs``, which refuses a callable with DomainError.
    """
    coeffs = _as_coeffs(f)

    def evaluate(x: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(x, coeffs)

    cont = float(np.dot(spec.theta_weights, evaluate(np.cos(spec.theta_nodes))))
    mass_values = evaluate(np.array([x for x, _ in spec.masses], dtype=float))
    disc = sum(w * float(v) for (_, w), v in zip(spec.masses, mass_values))
    return cont + disc

"""q-series primitives.

q-shifted factorials, basic hypergeometric sums r_phi_s, the very-well-poised
8W7 combination, and Jackson q-integrals.  Everything is double precision;
every infinite sum or product is truncated behind an explicit geometric tail
bound controlled by ``QContext.tail_tol``.

Each primitive has one implementation.  :func:`qpoch` works on arrays of
parameters: each element keeps its own factor count, chosen by its own tail
test, so its value does not depend on the rest of the batch, and a scalar
call is a batch of one.  Callers that need several factorials make one array
call.  :func:`phi_rs` and :func:`w87` share one term loop; 8W7 is the
r_phi_s loop with the well-poised weight (1 - a q^{2k})/(1 - a) on each term.

A closed form that needs factorials is written as a :class:`Factorials`:
the list of its factorials plus the rule that assembles its value from
theirs.  :meth:`Factorials.evaluate` evaluates it as a batch of one, and
:meth:`Factorials.join` gathers any number of forms (every angle, case or
kernel of one identity check) into one form, so one :func:`qpoch` call
serves them all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QContext",
    "Factorials",
    "SeriesSpec",
    "qpoch",
    "qpoch_prod",
    "phi_rs",
    "w87",
    "q_integral",
]

#: relative tolerance used to decide whether a parameter equals q**-n exactly
TERMINATION_RTOL = 1e-12

#: entries in the largest temporary block the array path of qpoch allocates
_QPOCH_BLOCK = 1 << 12


@dataclass(frozen=True)
class QContext:
    """Base q in (0,1) together with the shared truncation policy.

    ``tail_tol`` bounds the tail discarded when an infinite object is cut
    off; ``max_terms`` aborts runaway summations with ConvergenceError.
    """

    q: float
    tail_tol: float = 1e-14
    max_terms: int = 20000

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie strictly inside (0,1), got {self.q!r}")
        if not self.tail_tol > 0.0:
            raise DomainError("tail_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")

    def squared(self) -> "QContext":
        """Same policy with base q^2 (most operator formulas live there)."""
        return QContext(self.q * self.q, self.tail_tol, self.max_terms)


def neg_power_index(value, q: float):
    """Return n >= 0 such that value == q**-n within relative TERMINATION_RTOL, else None.

    Used both for terminating-series detection (upper parameters) and for
    the divide-by-zero guard on lower parameters.
    """
    if isinstance(value, complex):
        if abs(value.imag) > TERMINATION_RTOL * max(abs(value), 1.0):
            return None
        value = value.real
    if value <= 0.0:
        return None
    n = round(-math.log(value) / math.log(q))
    if n < 0:
        return None
    if abs(value - q ** (-n)) <= TERMINATION_RTOL * q ** (-n):
        return n
    return None


def qpoch(a, ctx: QContext, k=None):
    """q-shifted factorial (a;q)_k = prod_{i=0}^{k-1} (1 - a q^i).

    ``k`` is a nonnegative integer or None/inf for the infinite product.
    The infinite product stops at the first i with |a| q^i < tail_tol*(1-q);
    the discarded factors are 1 + eps_i with sum |eps_i| <= |a| q^i / (1-q)
    < tail_tol, so the relative truncation error is below ~tail_tol.

    ``a`` may be an array (or list), and ``k`` an array of integers and
    infs that broadcasts against it; the result is then an array of that
    shape.  Each element stops by the tail test above applied to its own
    |a|, or after its own finite k, and multiplies its factors in order
    from i = 0.  A scalar ``a`` with a scalar ``k`` runs as an array of
    one element and comes back as a Python float (complex for complex a).
    """
    if isinstance(a, (np.ndarray, list, tuple)) or isinstance(k, (np.ndarray, list, tuple)):
        return _qpoch_array(a, ctx, k)
    return _qpoch_array([a], ctx, k).tolist()[0]


def _q_powers(q: float, n: int) -> np.ndarray:
    """[0, 1, q, q^2, ..., q^{n-1}]: the powers by repeated multiplication
    (``multiply.accumulate`` is sequential, q^{i+1} = q^i * q), after a
    leading 0 that gives each factor block a first column of 1 - a*0 = 1."""
    out = np.full(n + 1, q)
    out[0] = 0.0
    if n:
        out[1] = 1.0
    np.multiply.accumulate(out[1:], out=out[1:])
    return out


def _tail_counts(mags: np.ndarray, powers: np.ndarray, threshold: float) -> np.ndarray:
    """For each magnitude m, the number of leading i with m * powers[i] >= threshold.

    The products fall with i and rise with m, so every count lies between
    the counts of the smallest and the largest magnitude; only the powers
    between those two are compared element by element.
    """
    ends = np.array([[mags.min()], [mags.max()]])
    lo, hi = np.count_nonzero(ends * powers >= threshold, axis=1).tolist()
    counts = np.full(mags.size, lo, dtype=np.intp)
    window = powers[lo:hi]
    cols = min(window.size, _QPOCH_BLOCK)
    rows = _QPOCH_BLOCK // max(cols, 1)
    for r0 in range(0, mags.size if cols else 0, rows):
        col = mags[r0 : r0 + rows, None]
        for c0 in range(0, window.size, cols):
            counts[r0 : r0 + rows] += np.count_nonzero(
                col * window[c0 : c0 + cols] >= threshold, axis=1
            )
    return counts


def _qpoch_array(a, ctx: QContext, k):
    """:func:`qpoch` on an array: one factor count per element, one power table."""
    a = np.asarray(a)
    a = a.astype(complex if a.dtype.kind == "c" else float)
    q = ctx.q
    if k is None or (np.ndim(k) == 0 and k == math.inf):
        shape, a = a.shape, a.ravel()
        infinite = None  # every element
        counts = np.zeros(a.size, dtype=np.intp)
        n_powers = 0
    else:
        kk = np.asarray(k, dtype=float)
        if np.any(np.isnan(kk) | (kk < 0) | (np.isfinite(kk) & (kk != np.floor(kk)))):
            raise DomainError(f"k must be a nonnegative integer or inf, got {k!r}")
        a, kk = np.broadcast_arrays(a, kk)
        shape, a, kk = a.shape, a.ravel(), kk.ravel()
        infinite = ~np.isfinite(kk)
        counts = np.where(infinite, 0.0, kk).astype(np.intp)
        n_powers = int(counts.max(initial=0))
    powers = None
    if infinite is None or infinite.any():
        mags = np.hypot(a.real, a.imag) if a.dtype.kind == "c" else np.abs(a)
        if infinite is not None:
            mags = mags[infinite]
        threshold = ctx.tail_tol * (1.0 - q)
        top = float(mags.max(initial=0.0))
        if not top < threshold:
            if not math.isfinite(top):
                _no_tail(top, ctx)
            # a few spare powers past the largest count; the fallback to
            # max_terms only runs if rounding defeats them
            span = min(int((math.log(threshold) - math.log(top)) / math.log(q)) + 4, ctx.max_terms)
            while True:
                powers = _q_powers(q, max(span, n_powers))
                tail = _tail_counts(mags, powers[1 : span + 1], threshold)
                if tail.max() < span:
                    break
                if span == ctx.max_terms:
                    _no_tail(top, ctx)
                span = ctx.max_terms
            if infinite is None:
                counts = tail
            else:
                counts[infinite] = tail
    if powers is None:
        powers = _q_powers(q, n_powers)
    return _factor_products(a, counts, powers, pad=infinite is not None).reshape(shape)


def _no_tail(mag: float, ctx: QContext):
    raise ConvergenceError(
        f"(a;q)_inf with |a|={mag:.3g}, q={ctx.q} did not reach tail_tol "
        f"within {ctx.max_terms} factors"
    )


def _factor_products(a: np.ndarray, counts: np.ndarray, powers: np.ndarray, pad: bool) -> np.ndarray:
    """prod_{i < counts[j]} (1 - a[j] q^i) for each j, multiplied in order.

    ``powers`` is the table from :func:`_q_powers`.  Rows are cut into
    blocks of at most _QPOCH_BLOCK entries.  Column 0 of a block holds the
    running product so far and the next factors follow it;
    ``multiply.accumulate`` forms the partial products one factor at a time,
    and each element's value is read at its own count.  With ``pad``,
    factors past an element's count are set to 1, so a short finite product
    next to a long one cannot overflow.
    """
    out = np.ones(a.size, dtype=a.dtype)
    width = max(1, min(int(counts.max(initial=0)), _QPOCH_BLOCK - 1))
    rows = _QPOCH_BLOCK // (width + 1)
    for r0 in range(0, a.size, rows):
        ar, cr = a[r0 : r0 + rows, None], counts[r0 : r0 + rows]
        res = out[r0 : r0 + rows]
        stop = int(cr.max())
        pad_rows = pad and int(cr.min()) < stop
        for c0 in range(0, stop, width):
            c1 = min(c0 + width, stop)
            # column 0 is 1 - a*0 = 1 in the first block, the carry after it
            blk = np.multiply(ar, powers[c0 : c1 + 1])
            np.subtract(1.0, blk, out=blk)
            if c0:
                blk[:, 0] = carry
            if pad_rows:
                np.copyto(blk[:, 1:], 1.0, where=np.arange(c0, c1) >= cr[:, None])
            np.multiply.accumulate(blk, axis=1, out=blk)
            if c0 == 0 and c1 == stop:
                res[:] = blk[np.arange(cr.size), cr]
            else:
                ends = np.flatnonzero((cr >= c0) & (cr <= c1))
                res[ends] = blk[ends, cr[ends] - c0]
            carry = blk[:, -1]
    return out


@dataclass(frozen=True)
class Factorials:
    """A closed form split into the q-shifted factorials it needs and the
    rule that assembles its value from them.

    ``params`` holds the bases a of the factorials (a;q)_k (raveled to one
    dimension), ``ks`` their orders (None: all infinite), and ``assemble``
    maps the array of their values, in the order of ``params``, to the
    value of the form.  :meth:`evaluate` alone forms the value
    ``assemble(qpoch(params, ctx, ks))``; since each element of a
    :func:`qpoch` call depends on its own base and order alone, the value
    does not depend on which forms share the call.
    """

    params: np.ndarray
    assemble: Callable[[np.ndarray], object]
    ks: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", np.ravel(np.asarray(self.params)))
        if self.ks is not None:
            ks = np.broadcast_to(np.asarray(self.ks, dtype=float), self.params.shape)
            object.__setattr__(self, "ks", ks)

    def evaluate(self, ctx: QContext):
        """The value of the form, every factorial from one :func:`qpoch` call.

        ConvergenceError when a factorial is not finite or the assembly
        divides by zero: near q = 1 a product of finite factorials underflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            vals = qpoch(self.params, ctx, self.ks)
        if not np.isfinite(vals).all():
            raise ConvergenceError(f"a q-shifted factorial at q={ctx.q!r} is not finite")
        try:
            with np.errstate(divide="raise"):
                return self.assemble(vals)
        except (ZeroDivisionError, FloatingPointError):
            raise ConvergenceError(
                f"a product of q-shifted factorials at q={ctx.q!r} underflows to zero"
            ) from None

    @staticmethod
    def join(forms: Sequence["Factorials"], combine: Callable = lambda *values: list(values)):
        """One form for all of ``forms``: its value is ``combine`` applied to
        their values in order (by default, the list of them)."""
        forms = list(forms)
        ends = np.cumsum([f.params.size for f in forms]).tolist()
        params = np.concatenate([f.params for f in forms]) if forms else np.zeros(0)
        ks = None
        if any(f.ks is not None for f in forms):
            ks = np.concatenate(
                [np.full(f.params.size, math.inf) if f.ks is None else f.ks for f in forms]
            )

        def assemble(vals: np.ndarray):
            return combine(
                *(f.assemble(vals[lo:hi]) for f, lo, hi in zip(forms, [0] + ends, ends))
            )

        return Factorials(params, assemble, ks)


def qpoch_prod(params: Sequence, ctx: QContext, k=None):
    """(a1, ..., ar; q)_k, the product of the individual factorials."""
    return math.prod(qpoch(list(params), ctx, k).tolist(), start=1.0)


@dataclass(frozen=True)
class SeriesSpec:
    """One r_phi_s evaluation: upper/lower parameter tuples, argument, base."""

    upper: tuple
    lower: tuple
    z: complex
    base: QContext

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))

    def terminating_length(self):
        """Number of nonzero terms (n+1) when some upper parameter is q^-n."""
        q = self.base.q
        hits = [n for a in self.upper if (n := neg_power_index(a, q)) is not None]
        return min(hits) + 1 if hits else None


def phi_rs(spec: SeriesSpec):
    """Basic hypergeometric sum r_phi_s(upper; lower; q, z).

    Term k carries the usual ((-1)^k q^{k(k-1)/2})^{1+s-r} factor.  A series
    flagged terminating (some upper parameter within 1e-12 relative of q^-n)
    is summed exactly over its n+1 terms; otherwise partial sums run until
    both the current term and a geometric tail estimate drop below tail_tol.
    """
    return _sum_terms(spec)


def w87(a, b, c, d, e, f, ctx: QContext, z):
    """Very-well-poised 8W7(a; b,c,d,e,f; q, z).

    Expanding the abbreviation gives an 8_phi_7 whose well-poised pair
    (q*sqrt(a), -q*sqrt(a)) over (sqrt(a), -sqrt(a)) telescopes to
    (1 - a q^{2k})/(1 - a); the sum is evaluated in that collapsed form, so
    the principal-branch square roots only ever appear formally and cancel.
    Term k reads

        (1 - a q^{2k})/(1 - a) * (a,b,c,d,e,f;q)_k
        / ((q, aq/b, aq/c, aq/d, aq/e, aq/f; q)_k) * z^k,

    the 6_phi_5 term of (a,b,c,d,e,f; aq/b,...,aq/f; q, z) times the weight.
    """
    if a == 1:
        raise DomainError("w87 requires a != 1")
    numer = (b, c, d, e, f)
    spec = SeriesSpec((a,) + numer, tuple(ctx.q * a / p for p in numer), z, ctx)
    return _sum_terms(spec, a)


def _sum_terms(spec: SeriesSpec, a=None):
    """The sum of the terms t_k of ``spec``, each times (1 - a q^{2k})/(1 - a)
    when the well-poised ``a`` is given.

    t_0 = 1 and t_{k+1} = t_k * factor_k, the factor's numerator and
    denominator multiplied and divided in parameter order.  A series that
    terminates through an upper parameter q^-n is summed over its n+1 terms;
    a lower parameter q^-m is refused unless the series stops first.
    Otherwise the loop stops once the bound B_k on the k-th summand (|t_k|,
    times (1 + |a| q^{2k})/|1 - a| with ``a``) is below tail_tol and so is
    the geometric tail B_k R/(1 - R), where R bounds |t_{j+1}/t_j| for all
    j >= k: each factor of R decreases with k once every |b| q^k < 1.
    A sum that is not finite raises ConvergenceError.
    """
    ctx = spec.base
    q, tol = ctx.q, ctx.tail_tol
    upper, lower, z = spec.upper, spec.lower, spec.z
    r, s = len(upper), len(lower)
    e = 1 + s - r  # exponent of the (-1)^k q^{k(k-1)/2} factor
    n_terms = spec.terminating_length()

    # Lower parameters of the form q^-m make term m+1 divide by zero, which
    # is fine only if the series stops at or before term m.
    for b in lower:
        m = neg_power_index(b, q)
        if m is not None and (n_terms is None or n_terms > m + 1):
            raise DomainError(
                f"lower parameter {b!r} equals q^-{m}; series does not "
                "terminate before the resulting zero denominator"
            )
    if e < 0 and n_terms is None:
        raise DomainError(
            f"{r}_phi_{s} with r > s+1 has zero radius of convergence unless "
            "it terminates"
        )

    # the tail test in Python floats: exact, and cheaper than numpy scalars
    abs_z = float(abs(z))
    abs_upper = tuple(map(float, map(abs, upper)))
    abs_lower = tuple(map(float, map(abs, lower)))
    if a is not None:
        one_a, abs_a = 1.0 - a, float(abs(a))
        abs_1a = float(abs(one_a))
    qq = q * q
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    qk = 1.0  # q^k
    q2k = 1.0  # q^{2k}
    for k in range(ctx.max_terms):
        if a is None:
            total += term
        else:
            total += term * (1.0 - a * q2k) / one_a
        if n_terms is not None:
            if k + 1 >= n_terms:
                break
        else:
            try:
                bound = abs(term)
            except OverflowError:  # |t_k| past the float range: no stop at this k
                bound = math.inf
            if a is not None:
                bound *= (1.0 + abs_a * q2k) / abs_1a
            if bound <= tol and all(p * qk < 1.0 for p in abs_lower):
                ratio = abs_z * (q ** (k * e) if e else 1.0)
                for p in abs_upper:
                    ratio *= 1.0 + p * qk
                ratio /= 1.0 - q * qk  # the (q;q)_k update factor
                for p in abs_lower:
                    ratio /= 1.0 - p * qk
                if ratio < 1.0 and bound * ratio / (1.0 - ratio) <= tol:
                    break
        factor = z
        for p in upper:
            factor *= 1.0 - p * qk
        factor /= 1.0 - q * qk
        for p in lower:
            factor /= 1.0 - p * qk
        if e:
            factor *= (-qk) ** e
        term *= factor
        qk *= q
        q2k *= qq
    else:
        name = f"{r}_phi_{s}" if a is None else "8W7"
        raise ConvergenceError(f"{name} did not converge within {ctx.max_terms} terms")
    if not cmath.isfinite(total):
        raise ConvergenceError(f"the sum of {spec!r} is not finite")
    return total


def _jackson_zero_to(f: Callable[[float], float], c: float, ctx: QContext):
    """int_0^c f d_q x = (1-q) c sum_k f(c q^k) q^k with a tail bound.

    The tail past index K is (1-q)|c| sum_{k>K} |f(c q^k)| q^k
    <= |c| M q^{K+1} where M bounds |f| near 0; M is estimated from f(0)
    and the last few sampled values.
    """
    if c == 0.0:
        return 0.0
    q = ctx.q
    f0 = abs(f(0.0))
    window = []
    total = 0.0
    qk = 1.0
    for k in range(ctx.max_terms):
        val = f(c * qk)
        total += val * qk
        window.append(abs(val))
        if len(window) > 6:
            window.pop(0)
        m_hat = max(max(window), f0)
        if k >= 5 and abs(c) * m_hat * qk * q <= ctx.tail_tol:
            return (1.0 - q) * c * total
        qk *= q
    raise ConvergenceError(
        f"Jackson q-integral tail did not reach tail_tol within {ctx.max_terms} terms"
    )


def q_integral(f: Callable[[float], float], a: float, b: float, ctx: QContext):
    """Jackson q-integral int_a^b f(x) d_q x.

    Defined as int_0^b - int_0^a with
    int_0^c f d_q x = (1-q) c sum_{k>=0} f(c q^k) q^k; admits c < 0.
    """
    return _jackson_zero_to(f, b, ctx) - _jackson_zero_to(f, a, ctx)

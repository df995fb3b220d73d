"""q-series primitives.

q-shifted factorials, basic hypergeometric sums r_phi_s, the very-well-poised
8W7 combination, and Jackson q-integrals.  Everything is double precision;
every infinite sum or product is truncated behind an explicit geometric tail
bound controlled by ``QContext.tail_tol``.

Each primitive has one implementation.  :func:`qpoch` works on arrays of
parameters: each element keeps its own factor count, chosen by its own tail
test, so its value does not depend on the rest of the batch, and a scalar
call is a batch of one.  Callers that need several factorials make one array
call.  :func:`phi_rs` and :func:`w87` share one term loop, which sums a
batch of series together (a sum of either is a batch of one); 8W7 is the
r_phi_s loop with the well-poised weight (1 - a q^{2k})/(1 - a) on each term.
Both compute in Python float and complex arithmetic: an array argument is
read element by element as Python numbers.

A closed form that needs factorials is written as a :class:`Factorials`:
the list of its factorials and 8W7 sums plus the rule that assembles its
value from theirs.  :meth:`Factorials.evaluate` evaluates it as a batch of
one, and :meth:`Factorials.join` gathers any number of forms (every angle,
case or kernel of one identity check) into one form, so one :func:`qpoch`
call and one array :func:`w87` call serve them all.
"""

from __future__ import annotations

import math
import sys
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

#: entries in the largest temporary block the array paths of qpoch and of
#: the series sums allocate
_BLOCK = 1 << 12

#: terms per series in the first block of a batch of series sums when |z|
#: gives no estimate (every series terminates, or |z| >= 1); each later
#: block doubles, within _BLOCK entries
_SERIES_CHUNK = 32


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


def _check_power_range(q: float, lowest: float, **params: float) -> None:
    """Refuse ``params`` whose closed forms take q^lowest past the float range.

    ``lowest`` is the lowest exponent at which a caller's closed forms take
    a power of q, in Python floats, which raise OverflowError past
    ln(float max) / |ln q|.  This raises ConvergenceError, naming the
    parameters, before any such power is formed.
    """
    if lowest * math.log(q) > math.log(sys.float_info.max):
        named = ", ".join(f"{name} = {value!r}" for name, value in params.items())
        raise ConvergenceError(f"q^{lowest:g} at {named} leaves the float range at q = {q!r}")


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
    cols = min(window.size, _BLOCK)
    rows = _BLOCK // max(cols, 1)
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
    blocks of at most _BLOCK entries.  Column 0 of a block holds the
    running product so far and the next factors follow it;
    ``multiply.accumulate`` forms the partial products one factor at a time,
    and each element's value is read at its own count.  With ``pad``,
    factors past an element's count are set to 1, so a short finite product
    next to a long one cannot overflow.
    """
    out = np.ones(a.size, dtype=a.dtype)
    width = max(1, min(int(counts.max(initial=0)), _BLOCK - 1))
    rows = _BLOCK // (width + 1)
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
    """A closed form split into the q-shifted factorials and 8W7 sums it
    needs and the rule that assembles its value from them.

    ``params`` holds the bases a of the factorials (a;q)_k (raveled to one
    dimension), ``ks`` their orders (None: all infinite), and ``series`` the
    arguments (a, b, c, d, e, f, z) of each 8W7 sum, summed in the base the
    form is evaluated in.  ``assemble`` maps the array of the factorials'
    values, in the order of ``params``, to the value of the form; a form
    with series takes the list of their sums, in order, as a second
    argument.  :meth:`evaluate` alone forms the value: every factorial from
    one :func:`qpoch` call and every sum from one array :func:`w87` call
    (one per pattern of float and complex arguments).  Since each element of
    either call depends on its own arguments alone, the value does not
    depend on which forms share the calls.
    """

    params: np.ndarray
    assemble: Callable[..., object]
    ks: np.ndarray | None = None
    series: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", np.ravel(np.asarray(self.params)))
        if self.ks is not None:
            ks = np.broadcast_to(np.asarray(self.ks, dtype=float), self.params.shape)
            object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "series", tuple(map(tuple, self.series)))

    def evaluate(self, ctx: QContext):
        """The value of the form, every factorial from one :func:`qpoch` call.

        ConvergenceError when a factorial is not finite or the assembly
        divides by zero: near q = 1 a product of finite factorials underflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            vals = qpoch(self.params, ctx, self.ks)
        if not np.isfinite(vals).all():
            raise ConvergenceError(f"a q-shifted factorial at q={ctx.q!r} is not finite")
        sums = _w87_sums(self.series, ctx)
        try:
            with np.errstate(divide="raise"):
                return self._apply(vals, sums)
        except (ZeroDivisionError, FloatingPointError):
            raise ConvergenceError(
                f"a product of q-shifted factorials at q={ctx.q!r} underflows to zero"
            ) from None

    def _apply(self, vals: np.ndarray, sums: list):
        return self.assemble(vals, sums) if self.series else self.assemble(vals)

    @staticmethod
    def join(forms: Sequence["Factorials"], combine: Callable = lambda *values: list(values)):
        """One form for all of ``forms``: its value is ``combine`` applied to
        their values in order (by default, the list of them)."""
        forms = list(forms)
        ends = np.cumsum([f.params.size for f in forms]).tolist()
        series_ends = np.cumsum([len(f.series) for f in forms]).tolist()
        params = np.concatenate([f.params for f in forms]) if forms else np.zeros(0)
        ks = None
        if any(f.ks is not None for f in forms):
            ks = np.concatenate(
                [np.full(f.params.size, math.inf) if f.ks is None else f.ks for f in forms]
            )

        def assemble(vals: np.ndarray, sums: list = ()):
            parts = zip(forms, [0] + ends, ends, [0] + series_ends, series_ends)
            return combine(*(f._apply(vals[lo:hi], sums[s0:s1]) for f, lo, hi, s0, s1 in parts))

        series = tuple(lane for f in forms for lane in f.series)
        return Factorials(params, assemble, ks, series)


def _w87_sums(series: tuple, ctx: QContext) -> list:
    """The 8W7 sums of ``series`` in base ``ctx``, in order: one array
    :func:`w87` call for the series whose arguments are floats and complexes
    in the same places, so each sum is the one a scalar call gives."""
    groups: dict[tuple, list[int]] = {}
    for i, args in enumerate(series):
        groups.setdefault(tuple(isinstance(v, complex) for v in args), []).append(i)
    sums = [None] * len(series)
    for lanes in groups.values():
        *params, z = (np.array(col) for col in zip(*(series[i] for i in lanes)))
        for i, value in zip(lanes, w87(*params, ctx, z).tolist()):
            sums[i] = value
    return sums


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
    The sum is a batch of one of :func:`_sum_terms`.
    """
    upper, lower = (_Slots.of([[v] for v in vals], 1) for vals in (spec.upper, spec.lower))
    return _sum_terms(upper, lower, _Slots.of([[spec.z]], 1), spec.base).tolist()[0]


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

    Like :func:`qpoch`, the parameters and z may be arrays that broadcast
    together, one series per element, all summed in one :func:`_sum_terms`
    batch; the result is then a complex array of that shape.  Each element
    is summed as a scalar call with that element as a Python float (real
    array) or complex (complex array) would be.  A scalar call is a batch of
    one and returns a Python complex.
    """
    arrays = np.broadcast_arrays(*map(np.asarray, (a, b, c, d, e, f, z)))
    columns = [x.ravel().tolist() for x in arrays]
    q = ctx.q
    lower = [[] for _ in range(5)]
    for well_poised, *numer, _ in zip(*columns):
        if well_poised == 1:
            raise DomainError("w87 requires a != 1")
        if 0 in numer:
            raise DomainError("w87 requires b, c, d, e, f != 0: a q / p divides by each")
        for col, p in zip(lower, numer):
            col.append(q * well_poised / p)
    flags = [x.dtype.kind == "c" for x in arrays]
    size = arrays[0].size
    upper, z = _Slots.of(columns[:6], size, flags[:6]), _Slots.of(columns[6:], size, flags[6:])
    sums = _sum_terms(upper, _Slots.of(lower, size), z, ctx, True)
    shape = arrays[0].shape
    return sums.reshape(shape) if shape else sums.tolist()[0]


@dataclass(frozen=True)
class _Slots:
    """Parameter slots of a batch of series: real and imaginary parts as
    arrays (slot, series), and which slots hold complex numbers; the others
    hold Python floats (their imaginary parts are zeros, never read)."""

    re: np.ndarray
    im: np.ndarray
    is_complex: tuple

    @staticmethod
    def of(columns: list, size: int, is_complex=None) -> "_Slots":
        """Slots from one list of ``size`` values per slot, complex where
        ``is_complex`` says or, by default, where a value is."""
        if is_complex is None:
            is_complex = [any(isinstance(v, complex) for v in col) for col in columns]
        values = np.array(columns, dtype=complex).reshape(len(columns), size)
        return _Slots(values.real.copy(), values.imag.copy(), tuple(is_complex))

    @staticmethod
    def stack(*slots: "_Slots") -> "_Slots":
        return _Slots(
            np.concatenate([x.re for x in slots]),
            np.concatenate([x.im for x in slots]),
            sum((x.is_complex for x in slots), ()),
        )

    def parts(self, j: int, rows) -> tuple:
        """Slot ``j`` of the series ``rows`` as parts (re, im) of shape (row, 1)."""
        return self.re[j, rows, None], self.im[j, rows, None] if self.is_complex[j] else None

    def value(self, j: int, i: int):
        """Slot ``j`` of series ``i`` as the Python float or complex it stands for."""
        return complex(self.re[j, i], self.im[j, i]) if self.is_complex[j] else float(self.re[j, i])


# CPython's complex arithmetic (_Py_c_prod, _Py_c_diff, _Py_c_quot) on
# float64 arrays of real and imaginary parts, one IEEE operation per C
# operation: numpy's own complex multiply and divide fuse and reorder them.
# Parts (re, None) stand for Python floats, which CPython widens to
# (re, +0.0) where they meet a complex.


def _c_mul(x, y):
    (xr, xi), (yr, yi) = x, y
    if xi is None and yi is None:
        return xr * yr, None
    xi = 0.0 if xi is None else xi
    yi = 0.0 if yi is None else yi
    return xr * yr - xi * yi, xr * yi + xi * yr


def _c_div(x, y, pre=None):
    """x / y, NaN where CPython raises ZeroDivisionError (y == 0).

    y is divided through by its real part, or by its imaginary part where
    |Re y| >= |Im y| fails (also for a NaN part; never for a float y, whose
    imaginary part is +0.0); ``pre`` holds :func:`_divisor` of y when it is
    known.
    """
    (xr, xi), (yr, yi) = x, y
    if xi is None and yi is None:
        return xr / yr, None
    xi = 0.0 if xi is None else xi
    ratio, denom, swap = _divisor(yr, yi) if pre is None else pre
    re = (xr + xi * ratio) / denom
    im = (xi - xr * ratio) / denom
    if swap is not None:
        at = np.nonzero(np.broadcast_to(swap, re.shape))
        xr, xi, yr, yi = (
            v[at] if np.shape(v) == re.shape else np.broadcast_to(v, re.shape)[at]
            for v in (xr, xi, yr, yi)
        )
        ratio = yr / yi
        denom = yr * ratio + yi
        re[at] = (xr * ratio + xi) / denom
        im[at] = (xi * ratio - xr) / denom
    return re, im


def _divisor(yr, yi) -> tuple:
    """What :func:`_c_div` by y needs of y alone: Im y / Re y, the
    denominator Re y + Im y * that ratio, and where |Re y| >= |Im y| fails
    (None where it holds throughout, as for a float y)."""
    if yi is None:
        ratio = 0.0 / yr
        return ratio, yr + 0.0 * ratio, None
    ratio = yi / yr
    swap = ~(np.abs(yr) >= np.abs(yi))
    return ratio, yr + yi * ratio, swap if swap.any() else None


def _c_prod(x, factors: list):
    """x times each of ``factors`` in order: float products while x and the
    factors are floats, then ``multiply.accumulate`` over complex numbers,
    which forms each product as _Py_c_prod does, a float widened to +0.0j."""
    j = 0
    while j < len(factors) and x[1] is None and factors[j][1] is None:
        x = (x[0] * factors[j][0], None)
        j += 1
    if j == len(factors):
        return x
    tail = factors[j:]
    chain = np.empty((len(tail) + 1,) + tail[0][0].shape, dtype=complex)
    chain[0].real, chain[0].imag = x[0], 0.0 if x[1] is None else x[1]
    if all(im is not None for _, im in tail):
        chain.real[1:], chain.imag[1:] = [re for re, _ in tail], [im for _, im in tail]
    else:
        for row, (re, im) in zip(chain[1:], tail):
            row.real, row.imag = re, 0.0 if im is None else im
    product = np.multiply.accumulate(chain, axis=0, out=chain)[-1]
    return product.real, product.imag


def _neg_power_indices(slots: _Slots, q: float) -> np.ndarray:
    """:func:`neg_power_index` of each value of ``slots``, -1 for None, as
    an array (slot, series).  Only values whose real part lies near some
    q^-n (far wider than TERMINATION_RTOL) are tested one by one; the rest
    cannot pass that test."""
    out = np.full(slots.re.shape, -1, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) and log(-x) are never near
        x = np.log(slots.re) / -math.log(q)
        slack = 1e-9 * (1.0 + np.abs(x)) + 4.0 * TERMINATION_RTOL / -math.log(q)
        near = (slots.re > 0.0) & (x > -0.5) & (np.abs(x - np.round(x)) <= slack)
    for j, i in zip(*np.nonzero(near)):
        if (m := neg_power_index(slots.value(j, i), q)) is not None:
            out[j, i] = m
    return out


def _one_minus_times(slots: _Slots, rows, qk: np.ndarray, divisors: bool = False) -> list:
    """1 - p q^k for the series ``rows`` of each slot, at each q^k of ``qk``,
    as parts (row, k), the float slots and the complex slots each in one
    pass.  With ``divisors`` each comes with its :func:`_divisor` (None for
    a float slot)."""
    out = [None] * len(slots.is_complex)
    for is_complex in (False, True):
        at = [j for j, c in enumerate(slots.is_complex) if c == is_complex]
        if not at:
            continue
        re = slots.re[at][:, rows, None]
        if not is_complex:
            x_re = 1.0 - re * qk
            for n, j in enumerate(at):
                out[j] = ((x_re[n], None), None)
            continue
        im = slots.im[at][:, rows, None]
        # (re q^k - im 0.0, re 0.0 + im q^k): CPython's product with a float
        x_re, x_im = 1.0 - (re * qk - im * 0.0), 0.0 - (re * 0.0 + im * qk)
        if divisors:
            ratio, denom, swap = _divisor(x_re, x_im)
            swaps = swap.any(axis=(1, 2)).tolist() if swap is not None else [False] * len(at)
        for n, j in enumerate(at):
            pre = (ratio[n], denom[n], swap[n] if swaps[n] else None) if divisors else None
            out[j] = ((x_re[n], x_im[n]), pre)
    return out if divisors else [x for x, _ in out]


def _rows(arrays: tuple, rows) -> tuple:
    """The rows ``rows`` of each array of ``arrays`` (None stays None)."""
    return tuple(None if x is None else x[rows] for x in arrays)


_NEVER = np.iinfo(np.intp).max

#: terms of a series tested together for the stop once its bound is below tail_tol
_STOP_WINDOW = 8


def _sum_terms(
    upper: _Slots, lower: _Slots, z: _Slots, ctx: QContext, well_poised: bool = False
) -> np.ndarray:
    """The sums of a batch of series sharing base ``ctx``: for each, the sum
    of its terms t_k, each times (1 - a q^{2k})/(1 - a), a its first upper
    parameter, when ``well_poised``.

    For each series t_0 = 1 and t_{k+1} = t_k * factor_k, the factor's
    numerator and denominator multiplied and divided in parameter order.  A
    series that terminates through an upper parameter q^-n is summed over
    its n+1 terms; a lower parameter q^-m is refused unless the series stops
    first.  Otherwise the series stops at the first k where the bound B_k on
    the k-th summand (|t_k|, times (1 + |a| q^{2k})/|1 - a| when well
    poised) is below tail_tol and so is the geometric tail B_k R/(1 - R),
    where R bounds |t_{j+1}/t_j| for all j >= k: each factor of R decreases
    with k once every |b| q^k < 1.  A series that does not stop within
    max_terms, or whose sum is not finite, raises ConvergenceError.

    The series run together, a block of terms of every unfinished series at
    a time: the block's factors in CPython's complex arithmetic on split
    parts (:func:`_c_mul`, :func:`_c_div`, :func:`_c_prod`), its terms as
    their running product and its partial sums as running sums
    (``multiply.accumulate`` and ``add.accumulate`` over complex numbers,
    one product or sum at a time in order), each series' term and partial
    sum carried into the next block.  B_k comes from the block; R only
    where B_k is below tail_tol, in Python floats as a scalar loop forms it.
    So each sum is bit for bit the one a scalar loop over the series in
    Python floats and complexes gives, and does not depend on the other
    series of the batch.
    """
    q, tol, cap = ctx.q, ctx.tail_tol, ctx.max_terms
    r, s = upper.re.shape[0], lower.re.shape[0]
    e = 1 + s - r  # exponent of the (-1)^k q^{k(k-1)/2} factor
    name = "8W7" if well_poised else f"{r}_phi_{s}"
    n = z.re.shape[1]

    # termination and zero denominators, once for the batch: a series ends
    # after term min n over its upper parameters q^-n; a lower parameter q^-m
    # makes term m+1 divide by zero, fine only if the series stops by term m
    hits, poles = np.split(_neg_power_indices(_Slots.stack(upper, lower), q), [r])
    is_open = (hits < 0).all(axis=0)
    last = np.where(hits < 0, _NEVER, hits).min(axis=0, initial=_NEVER)
    for j, i in zip(*np.nonzero((poles >= 0) & (is_open | (last > poles)))):
        raise DomainError(
            f"lower parameter {lower.value(j, i)!r} equals q^-{poles[j, i]}; series does "
            "not terminate before the resulting zero denominator"
        )
    if e < 0 and is_open.any():
        raise DomainError(
            f"{r}_phi_{s} with r > s+1 has zero radius of convergence unless "
            "it terminates"
        )

    # the stopping test's bounds, each as Python's abs() gives it (a float's
    # zero imaginary part leaves hypot at |re|)
    abs_z = np.hypot(z.re[0], z.im[0])
    abs_upper, abs_lower = np.hypot(upper.re, upper.im), np.hypot(lower.re, lower.im)
    if well_poised:
        a = upper.parts(0, slice(None))
        one_a = (1.0 - a[0], None if a[1] is None else 0.0 - a[1])
        over_one_a = _divisor(*one_a)
        abs_1a = np.hypot(1.0 - upper.re[0], 0.0 - upper.im[0])

    # the first block holds the terms |z|^k takes to reach tail_tol, and a
    # quarter more for the growth of the other factors
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.log(tol) / np.log(abs_z[is_open])
    est = est[np.isfinite(est) & (est > 0.0)]
    width = int(1.25 * est.max()) + 8 if est.size else _SERIES_CHUNK
    width = max(1, min(width, _BLOCK // n))

    out = np.empty(n, dtype=complex)
    alive = np.arange(n)  # the unfinished series
    term = np.ones(n, dtype=complex)
    total = np.zeros(n, dtype=complex)
    k0 = 0
    with np.errstate(all="ignore"):  # past its stop a series' block is discarded
        while alive.size:
            if k0 >= cap:
                raise ConvergenceError(f"{name} did not converge within {cap} terms")
            open_ = is_open[alive]
            end = cap if open_.any() else min(int(last[alive].max()) + 1, cap)
            k1 = min(k0 + width, end)
            cols = k1 - k0
            qk = _q_powers(q, k1)[1 + k0 :]  # q^k by repeated products, as in a loop

            factor = _c_prod(z.parts(0, alive), _one_minus_times(upper, alive, qk))
            factor = _c_div(factor, (1.0 - q * qk, None))
            for x, pre in _one_minus_times(lower, alive, qk, divisors=True):
                factor = _c_div(factor, x, pre)
            if e:
                factor = _c_mul(factor, (np.array([(-x) ** e for x in qk.tolist()]), None))
            block = np.empty((alive.size, cols + 1), dtype=complex)
            block[:, 0] = term
            block.real[:, 1:] = factor[0]
            block.imag[:, 1:] = 0.0 if factor[1] is None else factor[1]
            terms = np.multiply.accumulate(block, axis=1, out=block)
            sums = np.empty((alive.size, cols + 1), dtype=complex)
            sums[:, 0] = total
            if well_poised:
                q2k = _q_powers(q * q, k1)[1 + k0 :]
                t = (terms.real[:, :cols], terms.imag[:, :cols])
                a_q2k = _c_mul(_rows(a, alive), (q2k, None))
                weight = (1.0 - a_q2k[0], None if a_q2k[1] is None else 0.0 - a_q2k[1])
                t = _c_div(_c_mul(t, weight), _rows(one_a, alive), _rows(over_one_a, alive))
                sums.real[:, 1:], sums.imag[:, 1:] = t
            else:
                sums[:, 1:] = terms[:, :cols]
            np.add.accumulate(sums, axis=1, out=sums)

            # the column where each series stops: where its terms end, or the
            # first k where the bound and the tail are below tol
            stop = last[alive] - k0
            stop[(stop >= cols) | open_] = -1
            if open_.any():
                rows = np.flatnonzero(open_)
                at = alive[rows]
                bound = np.hypot(terms.real[rows, :cols], terms.imag[rows, :cols])
                if well_poised:
                    bound = bound * ((1.0 + abs_upper[0, at, None] * q2k) / abs_1a[at, None])
                stop[rows] = _first_stops(bound, at, k0, qk, abs_z, abs_upper, abs_lower, e, q, tol)
            done = stop >= 0
            out[alive[done]] = sums[done, stop[done] + 1]
            term, total, alive = terms[~done, cols], sums[~done, cols], alive[~done]
            k0, width = k1, max(1, min(2 * width, _BLOCK // max(alive.size, 1)))
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ConvergenceError(f"the {name} sum of series {int(bad[0])} of the batch is not finite")
    return out


def _first_stops(bound, series, k0, qk, abs_z, abs_upper, abs_lower, e, q, tol) -> np.ndarray:
    """For each row of ``bound`` (B_k of the block of series ``series``,
    from k = k0), the column of the first k where B_k <= tol and every
    |b| q^k < 1 and R < 1 and B_k R/(1 - R) <= tol, or -1.  R is formed, in
    the scalar loop's order, only from where B_k <= tol on: over a window
    of _STOP_WINDOW such k of each series at a time."""
    rows, cols = bound.shape
    stops = np.full(rows, -1)
    maybe = bound <= tol
    pending, start = np.arange(rows), np.zeros(rows, dtype=np.intp)
    while True:
        # the first k at or past ``start`` where B_k <= tol
        later = maybe[pending] & (np.arange(cols) >= start[:, None])
        start = later.argmax(axis=1)
        found = later[np.arange(pending.size), start]
        pending, start = pending[found], start[found]
        if not pending.size:
            return stops
        at = np.minimum(start[:, None] + np.arange(_STOP_WINDOW), cols - 1)
        lanes, qk_at = series[pending, None], qk[at]
        small = abs_lower[:, lanes] * qk_at
        ratio = np.broadcast_to(abs_z[lanes], at.shape)
        if e:
            powers = [q ** (k * e) for k in (k0 + at).ravel().tolist()]
            ratio = ratio * np.reshape(powers, at.shape)
        # R's factors multiplied, then divided, one at a time in order
        ratio = np.multiply.reduce(np.concatenate([ratio[None], 1.0 + abs_upper[:, lanes] * qk_at]))
        dens = [ratio[None], (1.0 - q * qk_at)[None], 1.0 - small]
        ratio = np.divide.reduce(np.concatenate(dens))
        b = bound[pending[:, None], at]
        ok = maybe[pending[:, None], at] & (small < 1.0).all(axis=0)
        ok &= (ratio < 1.0) & (b * ratio / (1.0 - ratio) <= tol)
        first = ok.argmax(axis=1)
        got = ok[np.arange(pending.size), first]
        stops[pending[got]] = at[got, first[got]]
        pending, start = pending[~got], start[~got] + _STOP_WINDOW


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

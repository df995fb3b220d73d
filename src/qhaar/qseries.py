"""q-series primitives.

q-shifted factorials, basic hypergeometric sums r_phi_s, the very-well-poised
8W7 combination, and Jackson q-integrals.  Everything is double precision;
every infinite sum or product is truncated behind an explicit geometric tail
bound below :data:`TAIL_TOL`, and a loop that needs more than
:data:`MAX_TERMS` terms or factors raises ConvergenceError.  These two
constants are the one truncation policy of the package: every q-series loop
reads them, in this module and outside it.

Each primitive has one implementation.  :func:`qpoch` works on arrays of
parameters: each element keeps its own factor count, chosen by its own tail
test, so its value does not depend on the rest of the batch, and a scalar
call is a batch of one.  Callers that need several factorials make one array
call.  :func:`phi_rs` and :func:`w87` share one term loop, which sums a
batch of series together (a sum of either is a batch of one); 8W7 is the
r_phi_s loop with the well-poised weight (1 - a q^{2k})/(1 - a) on each term.
Every parameter of either is a complex number, summed in CPython's complex
arithmetic; a real one gives the bits a loop in Python floats gives.

A closed form that needs factorials is written as a :class:`Factorials`:
the list of its factorials and 8W7 sums plus the rule that assembles its
value from theirs.  :meth:`Factorials.evaluate` evaluates it as a batch of
one, and :meth:`Factorials.join` gathers any number of forms (every angle,
case or kernel of one identity check) into one form, so one :func:`qpoch`
call and one array :func:`w87` call serve them all.
"""

from __future__ import annotations

import math
import numbers
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
    "phi_rs",
    "w87",
    "q_integral",
]

# TAIL_TOL and MAX_TERMS stay out of __all__: every loop reads them from this
# module at call time, so a copy bound elsewhere would not reach any loop

#: bound on the tail discarded when an infinite sum or product is cut off
TAIL_TOL = 1e-14

#: the most terms or factors a q-series loop takes before ConvergenceError
MAX_TERMS = 20000

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
    """The base q in (0,1) of a computation.

    It holds q alone, so two contexts are equal, and hash alike, exactly
    when their bases are; the truncation policy is TAIL_TOL and MAX_TERMS.
    """

    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie strictly inside (0,1), got {self.q!r}")

    def squared(self) -> "QContext":
        """The context of base q^2 (most operator formulas live there)."""
        return QContext(self.q * self.q)


def _check_numbers(**params: float) -> None:
    """Refuse a nan among ``params`` with DomainError, naming the first."""
    for name, value in params.items():
        if math.isnan(value):
            raise DomainError(f"{name} must be a number, got nan")


def _check_power_range(q: float, lowest: float, **params: float) -> None:
    """Refuse ``params`` whose closed forms take q^lowest past the float range.

    ``lowest`` is the lowest exponent at which a caller's closed forms take
    a power of q, in Python floats, which raise OverflowError past
    ln(float max) / |ln q|.  This raises ConvergenceError, naming the
    parameters, before any such power is formed.  A nan parameter, which
    no comparison refuses, raises DomainError by name first
    (:func:`_check_numbers`).
    """
    _check_numbers(**params)
    if lowest * math.log(q) > math.log(sys.float_info.max):
        named = ", ".join(f"{name} = {value!r}" for name, value in params.items())
        raise ConvergenceError(f"q^{lowest:g} at {named} leaves the float range at q = {q!r}")


def _as_coeffs(p) -> np.ndarray:
    """``p`` as an ascending coefficient array of floats; a scalar is one coefficient.

    Anything but real numbers in at most one dimension is refused with
    DomainError: a callable, a string, None, complex or nested input, and
    an empty list.  Ints and bools are real numbers.  This is the one
    coefficient rule: the traces of ``qsu2rep``, the measure integrals of
    ``haarverify``, ``moment_apply`` and ``aw_integrate`` read through it.
    """
    if callable(p):
        raise DomainError("expected polynomial coefficients, got a callable")
    try:
        coeffs = np.asarray(p)
    except ValueError:  # ragged nesting
        coeffs = np.empty((0, 0))
    kind = coeffs.dtype.kind
    if coeffs.ndim > 1 or not (
        kind in "biuf" or kind == "O" and all(isinstance(c, numbers.Real) for c in coeffs.flat)
    ):
        raise DomainError(f"expected real polynomial coefficients in one dimension, got {p!r:.60}")
    if coeffs.size == 0:
        raise DomainError("a polynomial needs at least one coefficient")
    return np.atleast_1d(coeffs.astype(float, copy=False))


def _coeff_list(p):
    """``p`` as a sequence of floats, as :func:`_as_coeffs` gives it.

    A nonempty tuple or list of Python floats is used as it is, and one of
    floats and ints with its ints made floats; numpy is asked only for
    other input.
    """
    if type(p) in (tuple, list) and p:
        kinds = set(map(type, p))
        if kinds <= {float, int}:
            return [float(c) for c in p] if int in kinds else p
    return _as_coeffs(p).tolist()


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


def qpoch(a, ctx: QContext, k=math.inf):
    """q-shifted factorial (a;q)_k = prod_{i=0}^{k-1} (1 - a q^i).

    ``k`` is a nonnegative integer or inf for the infinite product.
    The infinite product stops at the first i with
    |a| q^i < TAIL_TOL*(1-q); the discarded factors are 1 + eps_i with
    sum |eps_i| <= |a| q^i / (1-q) < TAIL_TOL, so the relative truncation
    error is below ~TAIL_TOL.  An infinite product that needs more than
    MAX_TERMS factors raises ConvergenceError.

    ``a`` may be an array (or list), and ``k`` an array of integers and
    infs that broadcasts against it; the result is then an array of that
    shape.  Each element stops by the tail test above applied to its own
    |a|, or after its own finite k, and multiplies its factors in order
    from i = 0.  A scalar ``a`` with a scalar ``k`` runs as an array of
    one element and comes back as a Python float (complex for complex a).
    An ``a`` that is not finite raises ConvergenceError, whatever ``k``.
    """
    if isinstance(a, (np.ndarray, list, tuple)) or isinstance(k, (np.ndarray, list, tuple)):
        return _qpoch_array(a, ctx, k)
    return _qpoch_array([a], ctx, [k]).tolist()[0]


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


def _tail_counts(mags: np.ndarray, powers: np.ndarray, threshold: float, q: float) -> np.ndarray:
    """For each magnitude m, the number of leading i with m * powers[i] >= threshold.

    The products do not rise with i, so the count is the first i where the
    product falls below threshold.  Logarithms give each count to within a
    step or so (m = 0 gives 0); the products on either side of it then move
    it to the exact count.
    """
    span = powers.size
    guess = np.ceil(np.log(threshold / mags) / math.log(q))
    counts = np.minimum(np.maximum(guess, 0.0), span).astype(np.intp)
    while True:
        short = counts < span
        short &= mags * powers[np.minimum(counts, span - 1)] >= threshold
        long = counts > 0
        long &= mags * powers[counts - long] < threshold
        if not (np.count_nonzero(short) or np.count_nonzero(long)):
            return counts
        counts += short
        counts -= long


def _qpoch_array(a, ctx: QContext, k):
    """:func:`qpoch` on an array: one factor count per element, one power table."""
    a = np.asarray(a)
    a = a.astype(complex if a.dtype.kind == "c" else float, copy=False)
    q = ctx.q
    kk = np.asarray(k)
    # a k that is not a number is named before the float cast makes it nan
    for v in [] if kk.dtype.kind in "biuf" else kk.ravel().tolist():
        if not isinstance(v, numbers.Real):
            raise DomainError(f"k must be a nonnegative integer or inf, got {v!r}")
    kk = kk.astype(float, copy=False)
    # inf and the integers equal their floor; nan, fractions and negatives fail
    ok = (kk >= 0.0) & (kk == np.floor(kk))
    if not ok.all():
        raise DomainError(f"k must be a nonnegative integer or inf, got {kk[~ok][0].item()!r}")
    if kk.shape != a.shape:
        a, kk = np.broadcast_arrays(a, kk)
    shape, a, kk = a.shape, a.ravel(), kk.ravel()
    infinite = kk == math.inf
    counts = np.where(infinite, 0.0, kk).astype(np.intp)
    n_powers = int(counts.max(initial=0))
    if not np.isfinite(a).all():
        bad = a[~np.isfinite(a)][0].item()
        raise ConvergenceError(f"(a;q)_k at q = {q!r} needs a finite a, got {bad!r}")
    powers = None
    # the count's estimate for m = 0 divides by zero, and the factors past
    # an element's count may overflow; neither is ever read
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if infinite.any():
            mags = (np.hypot(a.real, a.imag) if a.dtype.kind == "c" else np.abs(a))[infinite]
            threshold = TAIL_TOL * (1.0 - q)
            top = float(mags.max(initial=0.0))
            if not top < threshold:
                if not math.isfinite(top):
                    _no_tail(top, q)
                # a few spare powers past the largest count; the fallback to
                # MAX_TERMS only runs if rounding defeats them
                span = int((math.log(threshold) - math.log(top)) / math.log(q)) + 4
                span = min(span, MAX_TERMS)
                while True:
                    powers = _q_powers(q, max(span, n_powers))
                    tail = _tail_counts(mags, powers[1 : span + 1], threshold, q)
                    if tail.max() < span:
                        break
                    if span == MAX_TERMS:
                        _no_tail(top, q)
                    span = MAX_TERMS
                counts[infinite] = tail
        if powers is None:
            powers = _q_powers(q, n_powers)
        # the powers in a's type, as numpy casts them for each product
        return _factor_products(a, counts, powers.astype(a.dtype, copy=False)).reshape(shape)


def _no_tail(mag: float, q: float):
    raise ConvergenceError(
        f"(a;q)_inf with |a|={mag:.3g}, q={q} did not reach TAIL_TOL within {MAX_TERMS} factors"
    )


def _factor_products(a: np.ndarray, counts: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """prod_{i < counts[j]} (1 - a[j] q^i) for each j, multiplied in order.

    ``powers`` is the table from :func:`_q_powers`.  Rows are cut into
    blocks of at most _BLOCK entries (and columns where one product is
    longer).  Column 0 of a block holds the running product so far and the
    next factors follow it; ``multiply.accumulate`` forms the partial
    products one factor at a time, and each element's value is read at its
    own count.  The factors past an element's count are never read.  A
    block that carries a product in never has a single factor: numpy's
    ``multiply.accumulate`` over a row of two complex numbers is its plain
    complex multiply, which may fuse operations (it does on x86-64 with
    numpy 2.4); over three or more it multiplies one pair at a time.
    """
    out = np.ones(a.size, dtype=a.dtype)
    stop = int(counts.max(initial=0))
    if not stop:
        return out
    width = min(stop, _BLOCK - 1)
    edges = list(range(0, stop, width)) + [stop]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    rows = max(1, _BLOCK // (width + 1))
    for r0 in range(0, a.size, rows):
        ar, cr, res = a[r0 : r0 + rows, None], counts[r0 : r0 + rows], out[r0 : r0 + rows]
        for c0, c1 in zip(edges, edges[1:]):
            # column 0 is 1 - a*0 = 1 in the first block, the carry after it
            blk = np.multiply(ar, powers[c0 : c1 + 1])
            np.subtract(1.0, blk, out=blk)
            if c0:
                blk[:, 0] = carry
            np.multiply.accumulate(blk, axis=1, out=blk)
            if c1 == stop and not c0:
                res[:] = blk[np.arange(cr.size), cr]
            else:
                ends = np.flatnonzero((cr >= c0) & (cr <= c1))
                res[ends] = blk[ends, cr[ends] - c0]
            carry = blk[:, -1]
    return out


class Factorials:
    """A closed form split into the q-shifted factorials and 8W7 sums it
    needs and the rule that assembles its value from them.

    A form keeps the bases a of its factorials (a;q)_k, one order k per
    base (a scalar order, by default inf, is given to every base) and the
    arguments (a, b, c, d, e, f, z) of each 8W7 sum, summed in the base the
    form is evaluated in, as Python lists, so building and joining forms
    makes no numpy call.  An array of bases is read raveled.  ``assemble``
    maps the array of the factorials' values, in the order of the bases, to the
    value of the form; a form with series takes the list of their sums, in
    order, as a second argument.  :meth:`evaluate` alone forms the value: every
    factorial from one :func:`qpoch` call and every sum from one array
    :func:`w87` call, its arguments complex arrays.  Since each element of
    either call depends on its own arguments alone, the value does not
    depend on which forms share the calls.
    """

    __slots__ = ("_params", "_ks", "series", "assemble")

    def __init__(self, params, assemble: Callable[..., object], ks=math.inf, series=()) -> None:
        params = params.ravel().tolist() if isinstance(params, np.ndarray) else list(params)
        self._params = params
        self._ks = list(ks) if isinstance(ks, (list, tuple)) else [ks] * len(params)
        self.series = list(series)
        self.assemble = assemble

    def evaluate(self, ctx: QContext):
        """The value of the form, every factorial from one :func:`qpoch` call.

        ConvergenceError when a factorial is not finite or the assembly
        divides by zero: near q = 1 a product of finite factorials underflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            vals = qpoch(self._params, ctx, self._ks)
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
        params, ks, series, ends, series_ends = [], [], [], [], []
        for f in forms:
            params += f._params
            ks += f._ks
            series += f.series
            ends.append(len(params))
            series_ends.append(len(series))

        def assemble(vals: np.ndarray, sums: list = ()):
            parts = zip(forms, [0] + ends, ends, [0] + series_ends, series_ends)
            return combine(*(f._apply(vals[lo:hi], sums[s0:s1]) for f, lo, hi, s0, s1 in parts))

        return Factorials(params, assemble, ks, series)


def _w87_sums(series: list, ctx: QContext) -> list:
    """The 8W7 sums of ``series`` in base ``ctx``, in order, from one array
    :func:`w87` call on the complex columns of their arguments."""
    if not series:
        return []
    *params, z = np.array(series, dtype=complex).T
    return w87(*params, ctx, z).tolist()


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


def phi_rs(spec: SeriesSpec):
    """Basic hypergeometric sum r_phi_s(upper; lower; q, z).

    Term k carries the usual ((-1)^k q^{k(k-1)/2})^{1+s-r} factor.  A series
    flagged terminating (some upper parameter within 1e-12 relative of q^-n)
    is summed exactly over its n+1 terms; otherwise partial sums run until
    both the current term and a geometric tail estimate drop below TAIL_TOL.
    The sum is a batch of one of :func:`_sum_terms`.
    """
    upper, lower = (np.array(vals, dtype=complex).reshape(-1, 1) for vals in (spec.upper, spec.lower))
    return _sum_terms(upper, lower, np.array([spec.z], dtype=complex), spec.base).tolist()[0]


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
    batch; the result is then a complex array of that shape.  Every element
    is read as a complex number, and the lower parameters q a / p are
    formed in CPython's complex arithmetic.  A scalar call is a batch of one
    and returns a Python complex.
    """
    arrays = [np.asarray(x) for x in (a, b, c, d, e, f, z)]
    if len({x.shape for x in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    shape = arrays[0].shape
    values = np.array(arrays, dtype=complex).reshape(7, -1)
    re, im = values.real, values.imag
    # the first series with a = 1 or a zero b, c, d, e or f refuses the batch
    pole, zero = values[0] == 1.0, (values[1:6] == 0.0).any(axis=0)
    if pole.any() or zero.any():
        if pole[np.flatnonzero(pole | zero)[0]]:
            raise DomainError("w87 requires a != 1")
        raise DomainError("w87 requires b, c, d, e, f != 0: a q / p divides by each")
    lower = np.empty((5, values.shape[1]), dtype=complex)
    # q a / p in CPython's order, q widened to (q, +0.0)
    with np.errstate(all="ignore"):  # as CPython: inf * 0 is nan, and Re p = 0 divides by Im p
        qa = (ctx.q * re[0] - 0.0 * im[0], ctx.q * im[0] + 0.0 * re[0])
        lower.real, lower.imag = _c_div(qa, (re[1:6], im[1:6]))
    sums = _sum_terms(values[:6], lower, values[6], ctx, True)
    return sums.reshape(shape) if shape else sums.tolist()[0]


# CPython's complex quotient (_Py_c_quot) on float64 arrays of real and
# imaginary parts, one IEEE operation per C operation: numpy's own complex
# divide fuses and reorders them.


def _c_div(x, y):
    """x / y, NaN where CPython raises ZeroDivisionError (y == 0).

    y is divided through by its real part, or by its imaginary part where
    |Re y| >= |Im y| fails (also for a NaN part).
    """
    (xr, xi), (yr, yi) = x, y
    ratio = yi / yr
    denom = yr + yi * ratio
    re = (xr + xi * ratio) / denom
    im = (xi - xr * ratio) / denom
    swap = ~(np.abs(yr) >= np.abs(yi))
    if swap.any():
        with np.errstate(divide="ignore", invalid="ignore"):  # kept only where swapped
            ratio = yr / yi
            denom = yr * ratio + yi
            np.copyto(re, (xr * ratio + xi) / denom, where=swap)
            np.copyto(im, (xi * ratio - xr) / denom, where=swap)
    return re, im


def _neg_power_indices(values: np.ndarray, q: float) -> np.ndarray:
    """:func:`neg_power_index` of each of the complex ``values``, -1 for
    None, as an array of their shape, or None when every value gives None.
    Only values whose real part lies near some q^-n (far wider than
    TERMINATION_RTOL) are tested one by one; the rest cannot pass that
    test, and none can while every real part is below 1 (q^0)."""
    re = values.real
    if re.max(initial=0.0) < 1.0 - 1e-9:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) and log(-x) are never near
        x = np.log(re) / -math.log(q)
        slack = 1e-9 * (1.0 + np.abs(x)) + 4.0 * TERMINATION_RTOL / -math.log(q)
        near = (x > -0.5) & (np.abs(x - np.round(x)) <= slack)
    out = None
    for j, i in zip(*np.nonzero(near)):
        if (m := neg_power_index(complex(values[j, i]), q)) is not None:
            if out is None:
                out = np.full(values.shape, -1, dtype=np.intp)
            out[j, i] = m
    return out


_NEVER = np.iinfo(np.intp).max


def _factor_block(upper, lower, z, max_lower: float, rows, qk: np.ndarray, q: float) -> tuple:
    """The factors t_{k+1}/t_k of the series ``rows`` of a batch at the
    q^k of ``qk`` as parts (row, k), without the power of q that r_phi_s
    puts on each term; ``max_lower`` is the largest |b| of a lower b.

    The factor is z, times 1 - a q^k for each upper a, divided by
    1 - q^{k+1}, divided by 1 - b q^k for each lower b, in that order,
    in CPython's complex arithmetic.  Where CPython multiplies by the
    +0.0 of a float widened to complex (q^k, 1 - q^{k+1}) or adds one,
    the product or sum is left out: every lower parameter is finite, so
    every divisor is a finite nonzero number, and this changes nothing
    but the sign of a zero, or which of inf and nan a term that is not
    finite takes, and no sum.
    """
    fr, fi = z.real[rows, None], z.imag[rows, None]
    neg_qk = -qk
    ur = 1.0 - upper.real[:, rows, None] * qk
    ui = upper.imag[:, rows, None] * neg_qk  # 0.0 - im q^k
    for j in range(len(ur)):
        fr, fi = fr * ur[j] - fi * ui[j], fr * ui[j] + fi * ur[j]
    del ur, ui  # each pass's arrays are freed before the next pass's (the heap peak)
    d = 1.0 - q * qk
    fr, fi = fr / d, fi / d
    # 1 - b q^k of every lower slot in one pass, their divisors in one
    # more, then the divisions in slot order
    yr = 1.0 - lower.real[:, rows, None] * qk
    yi = lower.imag[:, rows, None] * neg_qk
    ratio = yi / yr
    denom = yr + yi * ratio
    # |Re y| >= |Im y| holds wherever |b| q^k <= 1/4
    cols = int(np.count_nonzero(max_lower * qk > 0.25))
    swapped = [False] * len(yr)
    if cols:
        swap = ~(np.abs(yr[:, :, :cols]) >= np.abs(yi[:, :, :cols]))
        swapped = swap.any(axis=(1, 2)).tolist()
    for n in range(len(yr)):
        xr, xi = fr, fi
        fr = (xr + xi * ratio[n]) / denom[n]
        fi = (xi - xr * ratio[n]) / denom[n]
        if swapped[n]:
            # divided through by Im y where |Re y| >= |Im y| fails
            ys_r, ys_i = yr[n, :, :cols], yi[n, :, :cols]
            xr, xi = xr[:, :cols], xi[:, :cols]
            s = ys_r / ys_i
            den = ys_r * s + ys_i
            np.copyto(fr[:, :cols], (xr * s + xi) / den, where=swap[n])
            np.copyto(fi[:, :cols], (xi * s - xr) / den, where=swap[n])
    return fr, fi


def _sum_terms(
    upper: np.ndarray, lower: np.ndarray, z: np.ndarray, ctx: QContext, well_poised: bool = False
) -> np.ndarray:
    """The sums of a batch of series sharing base ``ctx``, their upper and
    lower parameters complex arrays (slot, series) and their arguments a
    complex array ``z``: for each, the sum of its terms t_k, each times
    (1 - a q^{2k})/(1 - a), a its first upper parameter, when
    ``well_poised``.

    For each series t_0 = 1 and t_{k+1} = t_k * factor_k, the factor's
    numerator and denominator multiplied and divided in parameter order.  An
    upper parameter or argument that is not finite, or a lower parameter
    whose modulus is not finite, raises ConvergenceError naming its slot
    before anything is summed.  A series that terminates through an upper
    parameter q^-n is summed over its n+1 terms; a lower parameter q^-m is
    refused unless the series stops first.  Otherwise the series stops at
    the first k where the bound B_k on the k-th summand (|t_k|, times
    (1 + |a| q^{2k})/|1 - a| when well poised) is below TAIL_TOL and so is
    the geometric tail B_k R/(1 - R), where R bounds |t_{j+1}/t_j| for all
    j >= k: each factor of R decreases with k once every |b| q^k < 1.  A
    series that does not stop within MAX_TERMS, or whose sum is not finite,
    raises ConvergenceError.

    The series run together, a block of terms of every unfinished series at
    a time.  A block's factors take a fixed number of array passes
    (:func:`_factor_block`): the upper slots' 1 - a q^k in one, the lower
    slots' in one and their divisors in one more, then the products and
    the ordered divisions on split real and imaginary parts, in CPython's
    complex arithmetic.  The terms are the factors' running product and the
    partial sums running sums (``multiply.accumulate`` and
    ``add.accumulate`` over complex numbers along a row of at least three,
    one product or sum at a time in order), each series' term and partial
    sum carried into the next block.  B_k comes from the block; R from the
    first k where some B_k is below TAIL_TOL on, as a scalar loop forms it.
    So each sum is bit for bit the one a scalar loop over the series in
    Python complexes gives, and does not depend on the other series of the
    batch.  A series whose parameters are all real keeps zero imaginary
    parts, and its sum is the one a scalar loop in Python floats gives.
    """
    q, tol, cap = ctx.q, TAIL_TOL, MAX_TERMS
    r, s = len(upper), len(lower)
    e = 1 + s - r  # exponent of the (-1)^k q^{k(k-1)/2} factor
    name = "8W7" if well_poised else f"{r}_phi_{s}"
    n = z.size

    # the stopping test's bounds, each as Python's abs() gives it
    with np.errstate(over="ignore"):  # a modulus past the float range is inf
        abs_z = np.hypot(z.real, z.imag)
        abs_upper, abs_lower = np.hypot(upper.real, upper.imag), np.hypot(lower.real, lower.imag)
    for slot, values, finite in (
        ("upper parameter", upper, np.isfinite(upper)),
        ("lower parameter", lower, np.isfinite(abs_lower)),
        ("argument z", z[None], np.isfinite(z[None])),
    ):
        if not finite.all():
            j, i = np.argwhere(~finite)[0]
            raise ConvergenceError(f"{name} {slot} {complex(values[j, i])!r} of series {i} is not finite")

    # termination and zero denominators, once for the batch: a series ends
    # after term min n over its upper parameters q^-n; a lower parameter q^-m
    # makes term m+1 divide by zero, fine only if the series stops by term m
    marks = _neg_power_indices(np.concatenate((upper, lower)), q)
    all_open = marks is None
    if all_open:
        is_open, last = np.ones(n, dtype=bool), np.full(n, _NEVER)
    else:
        hits, poles = marks[:r], marks[r:]
        is_open = (hits < 0).all(axis=0)
        last = np.where(hits < 0, _NEVER, hits).min(axis=0, initial=_NEVER)
        for j, i in zip(*np.nonzero((poles >= 0) & (is_open | (last > poles)))):
            raise DomainError(
                f"lower parameter {complex(lower[j, i])!r} equals q^-{poles[j, i]}; series does "
                "not terminate before the resulting zero denominator"
            )
    if e < 0 and is_open.any():
        raise DomainError(
            f"{r}_phi_{s} with r > s+1 has zero radius of convergence unless "
            "it terminates"
        )

    max_lower = float(abs_lower.max(initial=0.0))
    if well_poised:
        # per series, as columns: a, 1 - a, |a| and |1 - a|
        a_re, a_im = upper.real[0, :, None], upper.imag[0, :, None]
        one_a = (1.0 - a_re, 0.0 - a_im)
        abs_a, abs_1a = abs_upper[0, :, None], np.hypot(*one_a)

    # the first block holds the terms |z|^k takes to reach TAIL_TOL for the
    # largest |z| < 1, and a quarter more for the growth of the other factors
    open_z = abs_z[is_open]
    top = float(open_z[open_z < 1.0].max(initial=0.0))
    est = math.log(tol) / math.log(top) if top > 0.0 else 0.0
    width = int(1.25 * est) + 8 if est > 0.0 else _SERIES_CHUNK
    width = max(2, min(width, _BLOCK // max(n, 1)))

    out = np.empty(n, dtype=complex)
    alive = np.arange(n)  # the unfinished series
    term = np.ones(n, dtype=complex)
    total = np.zeros(n, dtype=complex)
    powers = _q_powers(q, width)
    powers2 = _q_powers(q * q, width) if well_poised else None
    k0 = 0
    with np.errstate(all="ignore"):  # past its stop a series' block is discarded
        while alive.size:
            if k0 >= cap:
                raise ConvergenceError(f"{name} did not converge within {cap} terms")
            rows = alive if alive.size < n else slice(None)
            open_ = is_open[rows]
            any_open = all_open or open_.any()
            end = cap if any_open else min(int(last[rows].max()) + 1, cap)
            k1 = min(k0 + width, end)
            cols = k1 - k0
            if k1 >= powers.size:  # q^k by repeated products, as in a loop
                powers = _q_powers(q, max(k1, 2 * (powers.size - 1)))
                if well_poised:
                    powers2 = _q_powers(q * q, powers.size - 1)
            qk = powers[1 + k0 : 1 + k1]

            fr, fi = _factor_block(upper, lower, z, max_lower, rows, qk, q)
            if e:
                pw = np.array([(-x) ** e for x in qk.tolist()])
                fr, fi = fr * pw, fi * pw
            # a row of at least three: the last block of a series has one
            # column only where every series of it stops
            block = np.empty((alive.size, cols + 1), dtype=complex)
            block[:, 0] = term
            block.real[:, 1:] = fr
            block.imag[:, 1:] = fi
            terms = np.multiply.accumulate(block, axis=1, out=block)
            sums = np.empty((alive.size, cols + 1), dtype=complex)
            sums[:, 0] = total
            if well_poised:
                # t (1 - a q^{2k}) / (1 - a), the float parts left out of
                # CPython's products as in _factor_block
                q2k = powers2[1 + k0 : 1 + k1]
                tr, ti = terms.real[:, :cols], terms.imag[:, :cols]
                wr, wi = 1.0 - a_re[rows] * q2k, a_im[rows] * -q2k
                t = (tr * wr - ti * wi, tr * wi + ti * wr)
                sums.real[:, 1:], sums.imag[:, 1:] = _c_div(t, (one_a[0][rows], one_a[1][rows]))
            else:
                sums[:, 1:] = terms[:, :cols]
            np.add.accumulate(sums, axis=1, out=sums)

            # the column where each series stops: where its terms end, or the
            # first k where the bound and the tail are below tol
            if not all_open:
                stop = last[rows] - k0
                stop[stop >= cols] = -1
            if any_open:
                bound = np.hypot(terms.real[:, :cols], terms.imag[:, :cols])
                if well_poised:
                    bound *= (1.0 + abs_a[rows] * q2k) / abs_1a[rows]
                found = _first_stops(bound, rows, k0, qk, abs_z, abs_upper, abs_lower, e, q, tol)
                stop = found if all_open else np.where(open_, found, stop)
            done = stop >= 0
            if done.all():
                out[alive] = sums[np.arange(alive.size), stop + 1]
                break
            out[alive[done]] = sums[done, stop[done] + 1]
            term, total, alive = terms[~done, cols], sums[~done, cols], alive[~done]
            k0, width = k1, max(2, min(2 * width, _BLOCK // alive.size))
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out))
        raise ConvergenceError(f"the {name} sum of series {int(bad[0])} of the batch is not finite")
    return out


def _first_stops(bound, rows, k0, qk, abs_z, abs_upper, abs_lower, e, q, tol) -> np.ndarray:
    """For each row of ``bound`` (B_k of the block of the series ``rows``
    of the batch, from k = k0), the column of the first k where B_k <= tol
    and every |b| q^k < 1 and R < 1 and B_k R/(1 - R) <= tol, or -1.  R is
    formed as the scalar loop forms it, for every series at once, in one
    pass over the columns from the first where some B_k <= tol."""
    maybe = bound <= tol
    lo = int(maybe.any(axis=0).argmax())
    if not maybe[:, lo].any():
        return np.full(len(bound), -1)
    qk = qk[lo:]
    # R's factors multiplied, then divided, one at a time in order: |z|
    # (times q^{ke}) and each 1 + |a| q^k, then 1 - q^{k+1} and each 1 - |b| q^k
    grow = np.empty((1 + len(abs_upper), len(bound), qk.size))
    grow[0] = abs_z[rows, None]
    if e:
        grow[0] *= [q ** (k * e) for k in range(k0 + lo, k0 + lo + qk.size)]
    np.add(1.0, np.multiply(abs_upper[:, rows, None], qk, out=grow[1:]), out=grow[1:])
    ratio = np.multiply.reduce(grow, axis=0)
    del grow
    shrink = np.empty((2 + len(abs_lower),) + ratio.shape)
    shrink[0] = ratio
    np.subtract(1.0, q * qk, out=shrink[1])
    small = np.multiply(abs_lower[:, rows, None], qk, out=shrink[2:])  # |b| q^k
    ok = maybe[:, lo:] & (small < 1.0).all(axis=0)
    np.subtract(1.0, small, out=small)
    ratio = np.divide.reduce(shrink, axis=0)
    ok &= ratio < 1.0
    ok &= bound[:, lo:] * ratio / (1.0 - ratio) <= tol
    first = ok.argmax(axis=1)
    return np.where(ok[np.arange(len(bound)), first], first + lo, -1)


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
    for k in range(MAX_TERMS):
        val = f(c * qk)
        total += val * qk
        window.append(abs(val))
        if len(window) > 6:
            window.pop(0)
        m_hat = max(max(window), f0)
        if k >= 5 and abs(c) * m_hat * qk * q <= TAIL_TOL:
            return (1.0 - q) * c * total
        qk *= q
    raise ConvergenceError(f"Jackson q-integral tail did not reach TAIL_TOL within {MAX_TERMS} terms")


def q_integral(f: Callable[[float], float], a: float, b: float, ctx: QContext):
    """Jackson q-integral int_a^b f(x) d_q x.

    Defined as int_0^b - int_0^a with
    int_0^c f d_q x = (1-q) c sum_{k>=0} f(c q^k) q^k; admits c < 0.
    """
    return _jackson_zero_to(f, b, ctx) - _jackson_zero_to(f, a, ctx)

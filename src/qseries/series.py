"""Exact truncated Laurent series over arbitrary-precision integers.

A :class:`TruncatedSeries` stores finitely many integer coefficients together
with an *order of validity*: the coefficient of ``q^e`` is exactly known for
every exponent ``e < order`` (it is zero below the valuation), and unknown at
or beyond the order.  Every operation computes the exact order of validity of
its result, so a pipeline can never silently report a wrong coefficient.

Coefficients are plain Python ints; there is no floating point anywhere.
Division exists only by series whose leading coefficient is a unit (+1/-1),
which keeps every result integral.

The integer invariant is checked once, where values enter: the public
constructors ``TruncatedSeries(...)``, :func:`make` and
:meth:`TruncatedSeries.from_terms` check the valuation, the order and every
coefficient (or exponent), and ``zero``, ``one``, ``monomial``, ``shift`` and
``truncate`` check that their exponents and orders are ints, in O(1).
Everything the package computes itself (the ring
operations and exponent surgery here, the products, partition and mock
kernels) is integer arithmetic on checked values, so it builds its results
through the private ``TruncatedSeries._trusted``, which checks only the shape.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, repeat
from operator import add, mul, neg, sub


class SeriesError(ValueError):
    """Base error for series construction and arithmetic."""


class NonUnitError(SeriesError):
    """Division or inversion by a series whose leading coefficient is not +1/-1."""


class UnknownCoefficientError(SeriesError):
    """A coefficient at or beyond the order of validity was requested."""


def _check_int(what: str, x) -> None:
    if not isinstance(x, int):
        raise SeriesError(f"non-integer {what} {x!r}")


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class TruncatedSeries:
    """A Laurent-truncated formal power series with exact integer coefficients.

    ``coeffs[i]`` is the coefficient of ``q^(valuation + i)``; the length of
    ``coeffs`` always equals ``order - valuation``.  Exponents below the
    valuation have coefficient zero, exponents at or above the order are
    unknown.  Instances are immutable and safe to share across threads.

    Calling the class checks that the valuation, the order and every
    coefficient are ints; the package's own producers, whose values are ints
    by construction, build through :meth:`_trusted` instead, which checks
    only that the length matches the valuation and the order.
    """

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs: Sequence[int], order: int):
        _check_int("valuation", valuation)
        _check_int("order", order)
        for c in coeffs:
            if not isinstance(c, int):
                raise SeriesError(f"non-integer coefficient {c!r}")
        self._fill(valuation, coeffs, order)

    @classmethod
    def _trusted(cls, valuation: int, coeffs: Sequence[int], order: int) -> "TruncatedSeries":
        """Build from values that are ints by construction, checking the shape only."""
        self = object.__new__(cls)
        self._fill(valuation, coeffs, order)
        return self

    def _fill(self, valuation: int, coeffs: Sequence[int], order: int) -> None:
        if order < valuation:
            raise SeriesError(f"order {order} below valuation {valuation}")
        if len(coeffs) != order - valuation:
            raise SeriesError(
                f"expected {order - valuation} coefficients for valuation "
                f"{valuation} and order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        """The zero series, valid below ``order``."""
        _check_int("order", order)
        return cls._trusted(order, (), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        """The constant 1, valid below ``order``."""
        _check_int("order", order)
        if order <= 0:
            return cls.zero(order)
        return cls._trusted(0, (1,) + (0,) * (order - 1), order)

    @classmethod
    def monomial(cls, k: int, order: int) -> "TruncatedSeries":
        """``q^k``, valid below ``order``."""
        _check_int("exponent", k)
        _check_int("order", order)
        if order <= k:
            return cls.zero(order)
        return cls._trusted(k, (1,) + (0,) * (order - k - 1), order)

    @classmethod
    def from_terms(cls, terms: Mapping[int, int], order: int) -> "TruncatedSeries":
        """Build a series from an exponent-to-coefficient mapping.

        Exponents at or beyond ``order`` are ignored: they carry no
        information at this truncation level.
        """
        _check_int("order", order)
        for e, c in terms.items():
            _check_int("exponent", e)
            _check_int("coefficient", c)
        live = {e: c for e, c in terms.items() if e < order and c}
        if not live:
            return cls.zero(order)
        val = min(live)
        out = [0] * (order - val)
        for e, c in live.items():
            out[e - val] = c
        return cls._trusted(val, out, order)

    # -- basic queries ------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        """Exact coefficient of ``q^exponent``; raises beyond the order."""
        if exponent >= self.order:
            raise UnknownCoefficientError(
                f"coefficient of q^{exponent} unknown (order {self.order})"
            )
        if exponent < self.valuation:
            return 0
        return self.coeffs[exponent - self.valuation]

    def coefficients(self, upto: int | None = None) -> list[int]:
        """Coefficients of ``q^0 .. q^(upto-1)`` as a list (Laurent part dropped)."""
        n = self.order if upto is None else min(upto, self.order)
        v = self.valuation
        return [0] * max(min(v, n), 0) + list(self.coeffs[max(-v, 0) : max(n - v, 0)])

    def nonzero_items(self) -> list[tuple[int, int]]:
        """Sorted ``(exponent, coefficient)`` pairs with nonzero coefficient."""
        v = self.valuation
        return [(v + i, c) for i, c in enumerate(self.coeffs) if c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.agrees_with(other)[0]

    def agrees_with(self, other: "TruncatedSeries") -> tuple[bool, int | None]:
        """Compare on the overlap of known ranges.

        Returns ``(True, None)`` on agreement, else ``(False, e)`` with the
        first disagreeing exponent.  The two windows from the lower
        valuation to the lower order are compared as slices, each padded
        with zeros below its valuation.
        """
        lo = min(self.valuation, other.valuation)
        hi = min(self.order, other.order)
        a, b = self._window(lo, hi), other._window(lo, hi)
        if a == b:
            return True, None
        return False, lo + next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)

    def _window(self, lo: int, hi: int) -> tuple[int, ...]:
        """The coefficients of ``q^lo .. q^(hi-1)``, for lo <= valuation and hi <= order."""
        v = self.valuation
        return (0,) * (min(v, hi) - lo) + self.coeffs[: max(hi - v, 0)]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        val = min(self.valuation, other.valuation, order)
        out = [0] * (order - val)
        for s in (self, other):
            stop = order - s.valuation
            if stop <= 0:
                continue
            base = s.valuation - val
            chunk = s.coeffs if stop >= len(s.coeffs) else s.coeffs[:stop]
            for i, c in enumerate(chunk):
                if c:
                    out[base + i] += c
        return TruncatedSeries._trusted(val, out, order)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(self.valuation, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, c: int) -> "TruncatedSeries":
        """Multiply every coefficient by the integer ``c`` (order preserved)."""
        if not isinstance(c, int):
            raise SeriesError(f"scale factor must be an integer, got {c!r}")
        return TruncatedSeries._trusted(self.valuation, [c * x for x in self.coeffs], self.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        val = self.valuation + other.valuation
        order = min(self.order + other.valuation, other.order + self.valuation)
        if order <= val:
            return TruncatedSeries.zero(order)
        length = order - val
        # Schoolbook convolution: one slice of the other operand per nonzero
        # coefficient of the operand with fewer of them.  Both operands hold
        # at least ``length`` coefficients, so every slice of ``out`` is full.
        a, b = self, other
        if len(a.coeffs) - a.coeffs.count(0) > len(b.coeffs) - b.coeffs.count(0):
            a, b = b, a
        out = [0] * length
        bc = b.coeffs
        for i, c in enumerate(a.coeffs[:length]):
            if c:
                out[i:] = _plus(out[i:], c, bc)
        return TruncatedSeries._trusted(val, out, order)

    def _unit_lead(self) -> int:
        if not self.coeffs or self.coeffs[0] not in (1, -1):
            lead = self.coeffs[0] if self.coeffs else None
            raise NonUnitError(f"leading coefficient {_text_or_digits(lead)} is not +1 or -1")
        return self.coeffs[0]

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires leading coefficient +1 or -1."""
        return TruncatedSeries.one(self.order - self.valuation) / self

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact division; ``other`` must have unit leading coefficient."""
        other._unit_lead()
        val = self.valuation - other.valuation
        order = min(
            self.order - other.valuation,
            other.order + self.valuation - 2 * other.valuation,
        )
        if order <= val:
            return TruncatedSeries.zero(order)
        out: list[int] = []
        pull_quotient(out, self.coeffs[: order - val], other.coeffs)
        return TruncatedSeries._trusted(val, out, order)

    def __pow__(self, e: int) -> "TruncatedSeries":
        if not isinstance(e, int):
            raise SeriesError("exponent must be an integer")
        if e == 0:
            return TruncatedSeries.one(self.order - self.valuation)
        # Square and multiply: at most 2*floor(log2 |e|) products, with the
        # order of |e| - 1 repeated products.  A negative power inverts once.
        n = abs(e)
        base = self if e > 0 else self.invert()
        result = None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- exponent surgery ----------------------------------------------

    def extract_ap(self, m: int, r: int) -> "TruncatedSeries":
        """Arithmetic-progression part: the series ``sum_n a[m*n + r] q^n``."""
        if m < 1:
            raise SeriesError(f"progression modulus must be positive, got {m}")
        if not 0 <= r < m:
            raise SeriesError(f"residue {r} out of range for modulus {m}")
        val = _ceil_div(self.valuation - r, m)
        order = _ceil_div(self.order - r, m)
        if order <= val:
            return TruncatedSeries.zero(order)
        return TruncatedSeries._trusted(val, self.coeffs[m * val + r - self.valuation :: m], order)

    def substitute(self, k: int) -> "TruncatedSeries":
        """Replace ``q`` by ``q^k`` for a positive integer ``k``."""
        if k < 1:
            raise SeriesError(f"substitution power must be positive, got {k}")
        if k == 1:
            return self
        val = self.valuation * k
        order = self.order * k
        out = [0] * (order - val)
        out[::k] = self.coeffs
        return TruncatedSeries._trusted(val, out, order)

    def alternate(self) -> "TruncatedSeries":
        """Replace ``q`` by ``-q``: negate coefficients of odd exponents."""
        v = self.valuation
        out = list(self.coeffs)
        out[(v + 1) % 2 :: 2] = map(neg, out[(v + 1) % 2 :: 2])
        return TruncatedSeries._trusted(v, out, self.order)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by the exact monomial ``q^k`` (k may be negative)."""
        _check_int("shift", k)
        return TruncatedSeries._trusted(self.valuation + k, self.coeffs, self.order + k)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients at or beyond ``order``."""
        _check_int("order", order)
        if order >= self.order:
            return self
        if order <= self.valuation:
            return TruncatedSeries.zero(order)
        return TruncatedSeries._trusted(
            self.valuation, self.coeffs[: order - self.valuation], order
        )

    # -- display --------------------------------------------------------

    def __repr__(self) -> str:
        try:
            return f"<TruncatedSeries {format_series(self, max_terms=6)}>"
        except ValueError:  # a coefficient past the limit on digits in an int's text
            terms = " ".join(f"{e}:{_text_or_digits(c)}" for e, c in self.nonzero_items()[:6])
            return f"<TruncatedSeries {terms} (O(q^{self.order}))>"


def _text_or_digits(c: int) -> str:
    """``str(c)``, or the sign and number of digits of an int too long for text."""
    try:
        return str(c)
    except ValueError:
        m = abs(c)
        digits = int((m.bit_length() - 1) * 0.30102) + 1  # 0.30102 < log10(2): never too many
        while 10**digits <= m:
            digits += 1
        return f"{'-' if c < 0 else ''}({digits} digits)"


def _plus(ys: Iterable[int], c: int, xs: Iterable[int]) -> Iterable[int]:
    """``ys[i] + c * xs[i]`` over the shorter of the two, lazily and at C level."""
    if c == 1:
        return map(add, ys, xs)
    if c == -1:
        return map(sub, ys, xs)
    return map(add, ys, map(mul, repeat(c), xs))


def mul_binomial(coeffs: list[int], e: int, c: int) -> None:
    """Multiply the power series ``coeffs`` in place by ``(1 + c q^e)``.

    ``coeffs[i]`` is the coefficient of ``q^i``; the product is truncated to
    the list's length.  One slice assignment does it: both slices are copied
    before the assignment, so every read sees an input coefficient, which
    also makes ``e = 0`` scale by ``1 + c``.
    """
    if e < 0:
        raise SeriesError(f"binomial factor needs a nonnegative exponent, got {e}")
    n = len(coeffs)
    if e < n:
        coeffs[e:] = _plus(coeffs[e:], c, coeffs[: n - e])


def div_binomial(coeffs: list[int], e: int, c: int) -> None:
    """Divide the power series ``coeffs`` in place by ``(1 + c q^e)``, ``e >= 1``.

    The quotient runs upward so that every read sees an already divided
    coefficient: a block of ``e`` coefficients at a time, each block reading
    the one below it.  Dividing by ``1 - q^e`` with fewer residue classes than
    blocks (``e * e < len``) is instead a running sum along each class, and
    dividing by ``1 + q^e`` multiplies by ``1 - q^e`` and then divides by
    ``1 - q^2e`` whenever that divisor takes the running sum.
    """
    if e < 1:
        raise SeriesError(f"binomial divisor needs a positive exponent, got {e}")
    n = len(coeffs)
    if c == 1 and 4 * e * e < n:
        mul_binomial(coeffs, e, -1)
        e, c = 2 * e, -1
    if c == -1 and e * e < n:
        for r in range(e):
            coeffs[r::e] = accumulate(coeffs[r::e])
        return
    for lo in range(e, n, e):
        coeffs[lo : lo + e] = _plus(coeffs[lo : lo + e], -c, coeffs[lo - e : lo])


def pull_quotient(out: list[int], num: Sequence[int], den: Sequence[int]) -> None:
    """Extend ``out``, the first coefficients of the power series quotient
    ``num / den``, in place to ``len(num)`` coefficients.

    ``den[0]`` must be +1 or -1 and ``den`` must hold at least ``len(num)``
    coefficients.  Coefficient n is pulled from the numerator and the
    quotient below it, so the loop runs over the new range only.  Divisor
    terms of +1 and -1 are subtracted and added as they are; only the
    others cost a multiplication.
    """
    b0 = den[0]
    start, length = len(out), len(num)
    plus, minus, nz = [], [], []
    for k, c in enumerate(den[1:length], 1):
        if c == 1:
            plus.append(k)
        elif c == -1:
            minus.append(k)
        elif c:
            nz.append((k, c))
    out += repeat(0, length - start)
    for n in range(start, length):
        s = num[n]
        for k in plus:
            if k > n:
                break
            s -= out[n - k]
        for k in minus:
            if k > n:
                break
            s += out[n - k]
        for k, c in nz:
            if k > n:
                break
            s -= c * out[n - k]
        if s:
            out[n] = b0 * s


def make(valuation: int, coeffs: Iterable[int], order: int) -> TruncatedSeries:
    """Construct a series with exactly the given known coefficients."""
    return TruncatedSeries(valuation, tuple(coeffs), order)


# the largest order that format_series renders as a polynomial
DENSE_LIMIT = 50


def format_series(s: TruncatedSeries, max_terms: int | None = None) -> str:
    """Render a series for terminal output.

    Up to order ``DENSE_LIMIT`` the rendering is a signed polynomial; past it only
    sparse ``exponent:coefficient`` pairs are shown (pentagonal-style series
    would otherwise print pages of zeros).
    """
    items = s.nonzero_items()
    if max_terms is not None:
        items = items[:max_terms]
    tail = f"O(q^{s.order})"
    if not items:
        return f"0 + {tail}"
    if s.order <= DENSE_LIMIT:
        parts: list[str] = []
        for e, c in items:
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                qpow = "q" if e == 1 else f"q^{e}"
                term = qpow if mag == 1 else f"{mag}{qpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) + f" + {tail}"
    body = " ".join(f"{e}:{c}" for e, c in items)
    return f"{body} ({tail})"

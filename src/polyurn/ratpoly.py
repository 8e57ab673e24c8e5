"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is held as integer numerators over one positive denominator, in
lowest terms, so arithmetic, gcd, square-free decomposition and root
isolation are exact integer computations with certified answers. ``Fraction``
values appear only at the edges: coefficients evaluated (they are shown from
the integers), and the values and interval endpoints of roots. Roots in the
unit interval come back as exact rationals or as arbitrarily narrow isolating
intervals with rational endpoints (irrational roots), with their
multiplicities.

Every sign decision rests on one primitive, integer Horner evaluation
(:func:`sign_at`): the sign at ``p/q`` of a polynomial with primitive integer
coefficients ``c_i`` is the sign of the integer ``sum c_i p^i q^(n-i)``, one
integer Horner pass. Gcds, Yun's square-free split and Sturm sequences use
signed pseudo-remainders over the integers, each reduced to its primitive
part (Collins' primitive remainder sequence). Sturm sequences isolate the
distinct roots; a rational root is read off its isolating interval, narrowed
until at most one fraction with a small enough denominator fits. Narrowing
jumps to the interval that halving would reach on a Newton guess in integer
fixed point, kept only when exact signs at both its ends confirm it. The
sign of another polynomial at an irrational root is a Sturm-Tarski query: a
difference of sign variations at the two ends of the root's isolating
interval.

The unit interval is the natural domain here because these polynomials arise
as drift and noise curves of urn processes whose state is a proportion.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

#: Default width to which isolating intervals of irrational roots are refined.
DEFAULT_REFINE_WIDTH = Fraction(1, 10**12)

#: The interpreter's bound on int-to-str digits; 0 means none (before 3.10.7).
_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

LEFT_BOUNDARY = "left-boundary"
RIGHT_BOUNDARY = "right-boundary"
INTERIOR = "interior"


def parse_rational(value) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Accepts ints, Fractions, strings such as ``"3"``, ``"-3/4"`` or ``"0.25"``
    (parsed exactly), and floats (converted via their shortest decimal
    representation, so ``0.1`` becomes ``1/10``). A decimal whose numerator or
    denominator would have more digits than the interpreter converts between
    ints and strings (``sys.get_int_max_str_digits()``) is refused before it
    is built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a rational number: {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            # Unsigned ASCII integers and ratios of them, the usual input,
            # skip the ``Fraction`` string parser.
            num, slash, den = value.strip().partition("/")
            if num.isdigit() and num.isascii():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit() and den.isascii():
                    return Fraction(int(num), int(den))
            # ``m.f e k`` is ``mf * 10**(k - len(f))``: its numerator or
            # denominator has at most ``len(mf) + |k - len(f)|`` digits.
            mantissa, e, exponent = value.strip().lower().partition("e")
            whole, _, fraction = mantissa.partition(".")
            if e and "/" not in value and 0 < _max_digits() < (
                len(whole) + len(fraction) + abs(int(exponent) - len(fraction))
            ):
                raise ValueError(f"more than {_max_digits()} digits")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"not a rational number: {value!r}")


def format_rational(value: Rational) -> str:
    """Render a rational as a string that :func:`parse_rational` round-trips.

    Integers render bare (``"3"``), everything else as ``"p/q"``.
    """
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# The record base lives in this module because every other module imports it.
class Record:
    """Base of polyurn's frozen value records.

    A subclass declares its fields as annotations, after those it inherits,
    and gives defaults as class attributes. One shared constructor takes the
    fields by position or name, fills in the defaults and runs
    ``__post_init__``, which may normalise fields with ``object.__setattr__``
    and refuse bad values. Records are equal when their classes are the same
    and their field tuples equal, hash by that tuple, and refuse assignment
    and deletion. ``_fields`` is the field order, also the key order of the
    JSON report. Unlike ``dataclasses``, no code is generated per class.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _field_set: frozenset = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._field_set = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs) if args else kwargs
        passed = len(values)
        if passed < len(self._fields):
            values = {**self._defaults, **values}
        # A surplus positional value, dropped by zip, or a name repeating a
        # positional one leaves fewer keys than values passed.
        if passed < len(args) + len(kwargs) or values.keys() != self._field_set:
            raise TypeError(f"{type(self).__name__}() takes each field of {self._fields} "
                            f"once, all but those with defaults; got {len(args)} by "
                            f"position and {list(kwargs)} by name")
        vars(self).update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the fields; the base accepts them as given."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")


class RatPoly(Record):
    """A polynomial with exact rational coefficients ``num[i] / den``, lowest power first.

    The form is canonical: no trailing zero numerators, ``den > 0`` and
    ``gcd(den, *num) == 1``, with ``((), 1)`` for the zero polynomial. Equal
    polynomials therefore compare and hash equal.
    """

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Rational] = ()):  # noqa: D107
        coeffs = list(coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den)

    def _set(self, num: Sequence[int], den: int) -> "RatPoly":
        """Store ``num / den`` in canonical form."""
        while num and not num[-1]:
            num = num[:-1]
        g = math.gcd(den, *num) * (-1 if den < 0 else 1)
        object.__setattr__(self, "num", tuple(num) if g == 1 else tuple(v // g for v in num))
        object.__setattr__(self, "den", den // g)
        return self

    # -- basic structure ---------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def leading_coeff(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as Fractions, lowest power first (for presentation and evaluation)."""
        return tuple(Fraction(v, self.den) for v in self.num)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "RatPoly | Rational") -> "RatPoly":
        other = _coerce(other)
        g = math.gcd(self.den, other.den)
        a = [v * (other.den // g) for v in self.num]
        b = [v * (self.den // g) for v in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return _poly(a, self.den // g * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return _poly([-v for v in self.num], self.den)

    def __sub__(self, other: "RatPoly | Rational") -> "RatPoly":
        return self + (-_coerce(other))

    def __mul__(self, other: "RatPoly | Rational") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return _poly([v * other.numerator for v in self.num], self.den * other.denominator)
        other = _coerce(other)
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RatPoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = RatPoly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus and evaluation --------------------------------------------
    def evaluate(self, x):
        """Evaluate by Horner's rule; exact when ``x`` is int or Fraction."""
        result = 0 * x  # matches the numeric type of x
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def derivative(self) -> "RatPoly":
        return _poly([i * v for i, v in enumerate(self.num)][1:], self.den)

    # -- normal forms --------------------------------------------------------
    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        return _poly(self.num, self.num[-1])

    def primitive_integer_coeffs(self) -> tuple[int, ...]:
        """Integer coefficients after clearing denominators and common factors.

        The returned tuple is a positive rational multiple of ``coeffs`` with
        the same sign pattern (the rescaling constant is positive), so roots
        and signs are preserved. It is ``()`` for the zero polynomial and is
        computed once per polynomial.
        """
        cached = self.__dict__.get("_primitive")
        if cached is None:
            cached = self.__dict__["_primitive"] = _primitive(self.num)
        return cached

    def abs_sum(self) -> Fraction:
        """Sum of the coefficients' magnitudes, a bound on ``|self|`` over [-1, 1]."""
        return Fraction(sum(map(abs, self.num)), self.den)

    # -- presentation ---------------------------------------------------------
    def coefficient_strings(self) -> list[str]:
        """Coefficients as ``"p/q"`` strings, lowest power first.

        Each is ``num[i] / den`` reduced by one gcd, in the form of
        :func:`format_rational`, without building a ``Fraction``.
        """
        return [_ratio_text(v, self.den) for v in self.num]

    def to_text(self) -> str:
        """Human-readable form such as ``3 - 22*x + 48*x^2``.

        Formatted from ``num`` and ``den`` as :meth:`coefficient_strings` is;
        a term whose coefficient has magnitude one shows only its power.
        """
        if self.is_zero:
            return "0"
        parts = []
        den = self.den
        for i, v in enumerate(self.num):
            if not v:
                continue
            mag = abs(v)
            if i == 0:
                term = _ratio_text(mag, den)
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == den else f"{_ratio_text(mag, den)}*{var}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatPoly({self.to_text()!r})"


def _poly(num: Sequence[int], den: int) -> RatPoly:
    """The polynomial ``num / den``, for any integers with ``den != 0``."""
    return RatPoly.__new__(RatPoly)._set(num, den)


def _ratio_text(v: int, den: int) -> str:
    """:func:`format_rational` of ``v / den``, for ``den > 0``."""
    g = math.gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def _coerce(value) -> RatPoly:
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return _poly([value.numerator], value.denominator)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


# ---------------------------------------------------------------------------
# Integer remainder sequences, gcd and square-free structure
# ---------------------------------------------------------------------------

def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """``ints`` divided by the gcd of its entries, which is positive."""
    g = math.gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive part of a positive multiple of the remainder of ``a`` by ``b``.

    Each reduction step multiplies the running remainder by a positive
    factor of ``|lc(b)|`` before subtracting a multiple of ``b``, so the
    result has the signs of the rational remainder at every point.
    """
    r = list(a)
    n = len(b) - 1
    lc = b[-1]
    for k in range(len(r) - 1, n - 1, -1):
        lead = r.pop()
        if lead:
            g = math.gcd(lead, lc)
            scale, factor = abs(lc) // g, (lead if lc > 0 else -lead) // g
            r = [scale * v for v in r]
            for j in range(n):
                r[k - n + j] -= factor * b[j]
    while r and not r[-1]:
        r.pop()
    return _primitive(r)


def _exact_quotient(a: RatPoly, b: RatPoly) -> RatPoly:
    """``a / b`` for an integer ``a`` divisible by a primitive integer ``b``.

    The quotient has integer coefficients by Gauss's lemma, so every step of
    the long division divides exactly.
    """
    r, d = list(a.num), b.num
    n = len(d) - 1
    quotient = []
    for k in range(len(r) - 1, n - 1, -1):
        factor = r.pop() // d[-1]
        quotient.append(factor)
        for j in range(n):
            r[k - n + j] -= factor * d[j]
    return _poly(quotient[::-1], 1)


def squarefree_decomposition(p: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Split ``p`` into monic square-free factors with multiplicities.

    Returns ``(constant, [(factor, multiplicity), ...])`` such that
    ``p == constant * prod(factor**multiplicity)``, each factor is monic and
    square-free and the factors are pairwise coprime (Yun's algorithm). The
    steps run on integer polynomials: each gcd is the last member of a
    signed remainder sequence, primitive, and each division by it is exact.
    """
    factors, _chain = _squarefree_split(p)
    return p.leading_coeff, factors


def _squarefree_split(p: RatPoly):
    """The factors of :func:`squarefree_decomposition`, and the radical's Sturm chain or ``None``.

    Yun's first gcd, that of ``p`` and ``p'``, is the last member of
    ``sturm_chain(p)``, their signed remainder sequence. When it is a
    constant, ``p`` is square-free, its one factor is ``p.monic()`` and that
    sequence is returned as the chain: it is ``sturm_chain(p.monic())``
    member for member, times the sign of ``p``'s leading coefficient, which
    changes no count of sign variations. Otherwise Yun's loop runs on and
    the chain is ``None``.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no square-free decomposition")
    if p.degree == 0:
        return [], None
    chain = sturm_chain(p)
    if len(chain[-1]) == 1:
        return [(p.monic(), 1)], chain
    f = _poly(chain[0], 1)
    g = _poly(chain[-1], 1)
    b = _exact_quotient(f, g)
    d = _exact_quotient(f.derivative(), g) - b.derivative()
    factors: list[tuple[RatPoly, int]] = []
    mult = 1
    while b.degree > 0:
        a = _poly(_remainder_sequence(b, d)[-1], 1)
        if a.degree > 0:
            factors.append((a.monic(), mult))
        b = _exact_quotient(b, a)
        d = _exact_quotient(d, a) - b.derivative()
        mult += 1
    return factors, None


def radical(p: RatPoly) -> RatPoly:
    """Monic product of the distinct irreducible factors (each root once)."""
    _, factors = squarefree_decomposition(p)
    return math.prod((factor for factor, _m in factors), start=RatPoly([1]))


# ---------------------------------------------------------------------------
# Signs at rational points and Sturm sequences
# ---------------------------------------------------------------------------

def _horner(ints: Sequence[int], p: int, q: int) -> int:
    """``sum ints[i] * p**i * q**(n-i)``, by Horner's rule in integers.

    For ``q > 0`` this is the value of the polynomial with coefficients
    ``ints`` at ``p/q``, times ``q**n``.
    """
    acc = ints[-1]
    q_power = 1
    for c in ints[-2::-1]:
        q_power *= q
        acc = acc * p + c * q_power
    return acc


def _int_sign(ints: Sequence[int], p: int, q: int) -> int:
    """Sign of :func:`_horner`: for ``q > 0``, the sign of ``ints`` at ``p/q``."""
    acc = _horner(ints, p, q)
    return (acc > 0) - (acc < 0)


def sign_at(poly: RatPoly, x: Rational) -> int:
    """Exact sign (-1, 0, +1) of ``poly`` at the rational ``x``.

    Decided by :func:`_int_sign` on the primitive integer coefficients, which
    are a positive multiple of ``poly``'s.
    """
    if poly.is_zero:
        return 0
    return _int_sign(poly.primitive_integer_coeffs(), x.numerator, x.denominator)


def _remainder_sequence(p: RatPoly, q: RatPoly) -> list[tuple[int, ...]]:
    """Signed remainder sequence ``p, q, -(p mod q), ...`` to its last nonzero member.

    Each member is held as primitive integer coefficients, a positive multiple
    of the rational remainder (:func:`_pseudo_remainder`), which changes no
    sign.
    """
    seq = [p.primitive_integer_coeffs(), q.primitive_integer_coeffs()]
    while seq[-1]:
        seq.append(tuple(-v for v in _pseudo_remainder(seq[-2], seq[-1])))
    return seq[:-1]


def sturm_chain(p: RatPoly) -> list[tuple[int, ...]]:
    """Canonical chain of sign-alternating remainders used to count roots.

    Members are primitive integer coefficient tuples, lowest power first.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root-counting chain")
    return _remainder_sequence(p, p.derivative())


def _sign_variations(chain: Sequence[Sequence[int]], p: int, q: int) -> int:
    """Sign changes along ``chain`` at ``p/q``, for ``q > 0``, skipping zeros."""
    signs = [v > 0 for v in (_horner(member, p, q) for member in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_distinct_roots(chain: Sequence[Sequence[int]], lo: Rational, hi: Rational) -> int:
    """Number of distinct roots of the chain's polynomial in ``(lo, hi]``.

    When that polynomial is square-free, ``lo`` and ``hi`` may be roots;
    otherwise neither may be.
    """
    return (_sign_variations(chain, lo.numerator, lo.denominator)
            - _sign_variations(chain, hi.numerator, hi.denominator))


# ---------------------------------------------------------------------------
# Root records
# ---------------------------------------------------------------------------

class RootRecord(Record):
    """One root of a polynomial within the closed unit interval.

    Exactly one of ``value`` (exact rational root) and ``interval`` (open
    isolating interval with rational endpoints around an irrational root) is
    set. ``factor`` is the monic square-free factor whose simple sign change
    pins an irrational root; it drives :meth:`within` and exact sign
    queries, which raise ``ValueError`` for an irrational root without one.
    The location, the float approximation and the bounds follow from these.
    """

    multiplicity: int
    value: Fraction | None = None
    interval: tuple[Fraction, Fraction] | None = None
    factor: RatPoly | None = None

    @property
    def location(self) -> str:
        """``LEFT_BOUNDARY`` at 0, ``RIGHT_BOUNDARY`` at 1, ``INTERIOR`` otherwise."""
        return LEFT_BOUNDARY if self.value == 0 else RIGHT_BOUNDARY if self.value == 1 else INTERIOR

    @property
    def bounds(self) -> tuple[Fraction, Fraction]:
        """``(value, value)`` for a rational root, otherwise the isolating interval."""
        return (self.value, self.value) if self.value is not None else self.interval

    def position(self) -> Fraction:
        """Exact value, or the midpoint of the isolating interval."""
        return self.value if self.value is not None else sum(self.interval) / 2

    @property
    def approx(self) -> float:
        """Float approximation, good to the isolation width."""
        return float(self.position())

    def within(self, lower: Rational, upper: Rational, strict: bool) -> bool:
        """Exact membership in ``(lower, upper)`` if ``strict``, else in ``[lower, upper]``.

        An irrational root equals neither end, so its isolating interval is
        halved while it holds ``lower`` or ``upper``; it then lies wholly
        inside or wholly outside. An interval that holds neither end already
        does, and is compared without evaluating anything.
        """
        if self.value is not None:
            v = self.value
            return lower < v < upper if strict else lower <= v <= upper
        ints = self.defining_factor().primitive_integer_coeffs()
        lo, hi = self.interval
        if lo <= lower <= hi or lo <= upper <= hi:
            a, c, q = _bisect(ints, *_over_common_denominator(lo, hi), _holding((lower, upper)))
            lo, hi = Fraction(a, q), Fraction(c, q)
        return lower < lo and hi < upper

    def defining_factor(self) -> RatPoly:
        """The factor that pins an irrational root; ``ValueError`` if there is none."""
        if self.factor is None:
            raise ValueError("the irrational root has no defining factor")
        return self.factor


#: Bits by which the Newton guess of :func:`_warm_start` resolves a cell.
_GUESS_BITS = 16


def _bisect(ints: Sequence[int], a: int, c: int, q: int, keep_halving,
            levels: int = 0) -> tuple[int, int, int]:
    """Halve ``(a/q, c/q)`` around the one sign change of ``ints`` while asked to.

    ``ints`` are a polynomial's primitive integer coefficients and ``q > 0``.
    The interval is held over a denominator that doubles with each halving,
    and ``keep_halving(a, c, q)`` decides whether to halve again; the result
    is the last interval, as ``(a, c, q)``. The sign at the midpoint is
    decided by :func:`_int_sign`, and the sign at ``a/q`` is carried
    forward, so each halving costs one exact integer evaluation. If the
    polynomial vanishes at ``a/q``, the sign just right of it, opposite to
    the sign at ``c/q``, is carried instead. A midpoint that is a root ends
    the halving with ``(mid, mid, 2q)``.

    ``levels`` asks for a warm start. The caller then promises that
    ``(a/q, c/q]`` holds exactly one root, not at ``c/q``, and that
    ``keep_halving`` holds for the first ``levels`` halvings. The halving
    jumps to that level when :func:`_warm_start` certifies its cell which
    holds the root, and the loop goes on from there; the result is the
    interval that plain halving reaches, in a few evaluations instead of one
    per level.
    """
    if not levels and not keep_halving(a, c, q):
        return a, c, q
    sign_lo = _int_sign(ints, a, q) or -_int_sign(ints, c, q)
    if levels:
        a, c, q, sign_lo = _warm_start(ints, a, c, q, sign_lo, levels)
    while keep_halving(a, c, q):
        mid = a + c
        a, c, q = 2 * a, 2 * c, 2 * q
        sign_mid = _int_sign(ints, mid, q)
        if sign_mid == 0:
            return mid, mid, q
        if sign_mid != sign_lo:
            c = mid
        else:
            a = mid
    return a, c, q


def _warm_start(ints: Sequence[int], a: int, c: int, q: int, sign_lo: int,
                levels: int) -> tuple[int, int, int, int]:
    """The cell that ``levels`` halvings of ``(a/q, c/q)`` reach, or the interval itself.

    After ``k = levels`` halvings the interval is a cell
    ``(A/Q, (A + d)/Q)`` with ``Q = q 2^k``, ``d = c - a`` and
    ``A = a 2^k + j d`` for some ``0 <= j < 2^k``. A Newton iteration in
    integer fixed point, fine enough to split a cell into ``2^_GUESS_BITS``
    steps and kept inside the interval by halving its bracket where a step
    leaves it, guesses where the root lies; the cell of the guess is
    accepted only when the exact signs at both of its ends are nonzero and
    differ, which puts the interval's one root strictly inside it, where
    every halving would have followed it. Otherwise the interval comes back
    unchanged, to be halved from the start. Returns ``(a, c, q, sign_lo)``.
    """
    d = c - a
    bits = _GUESS_BITS + levels + (q // d).bit_length()
    shifted = [v << bits for v in ints]
    left, right = (a << bits) // q, -(-(c << bits) // q)
    x = (left + right) >> 1
    for _ in range(2 * bits):
        # value and slope at x / 2^bits, both scaled by 2^bits
        value, slope = shifted[-1], 0
        for coeff in shifted[-2::-1]:
            slope = (slope * x >> bits) + value
            value = (value * x >> bits) + coeff
        if (value > 0) - (value < 0) == sign_lo:
            left = x
        else:
            right = x
        step = (value << bits) // slope if slope else right - left
        x -= step
        # A Newton step of s units leaves an error of about s^2 / 2^bits units.
        if abs(step) <= 1 << (bits // 2):
            break
        if not left < x < right:
            x = (left + right) >> 1
    j = ((x * q - (a << bits)) << levels) // (d << bits)
    j = min(max(j, 0), (1 << levels) - 1)
    big_q = q << levels
    big_a = (a << levels) + j * d
    sign_a = _int_sign(ints, big_a, big_q)
    sign_c = _int_sign(ints, big_a + d, big_q)
    if sign_a and sign_c and sign_a != sign_c:
        return big_a, big_a + d, big_q, sign_a
    return a, c, q, sign_lo


def _levels_to(d: int, q: int, width: Fraction) -> int:
    """The fewest halvings after which an interval ``d/q`` wide is no wider than ``width``."""
    return (-(-d * width.denominator // (width.numerator * q)) - 1).bit_length()


def _ancestor(a: int, c: int, q: int, left: int, left_q: int,
              width: Fraction) -> tuple[int, int, int]:
    """The cell that halving ``(a/q, c/q)`` reaches first at ``width``, on its way to a finer cell.

    ``left / left_q`` is the lower end of a cell that halving reached after
    more halvings; cells nest, so the coarser cell is the one of its level
    that holds ``left / left_q``.
    """
    d = c - a
    levels = _levels_to(d, q, width)
    start = (a << levels) + ((left * q - a * left_q) << levels) // (left_q * d) * d
    return start, start + d, q << levels


def _over_common_denominator(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """``(a, c, q)`` with ``lo = a/q``, ``hi = c/q`` and ``q`` their least common denominator."""
    q = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    return lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q


def _wider_than(width: Fraction):
    """``keep_halving`` test of :func:`_bisect`: the interval is wider than ``width``."""
    return lambda a, c, q: (c - a) * width.denominator > width.numerator * q


def _holding(points: Sequence[Rational]):
    """``keep_halving`` test of :func:`_bisect`: the closed interval holds one of ``points``."""
    return lambda a, c, q: any(
        a * r.denominator <= r.numerator * q <= c * r.denominator for r in points
    )


def sign_at_root(poly: RatPoly, record: RootRecord) -> int:
    """Exact sign (-1, 0, +1) of ``poly`` at the root described by ``record``.

    At a rational root this is :func:`sign_at`. At an irrational root of the
    square-free factor ``g``, isolated in ``(lo, hi)``, it is the
    Sturm-Tarski query ``Var(lo) - Var(hi)`` over the signed remainder
    sequence of ``g`` and ``g' * poly``. That difference is the sum of the
    signs of ``poly`` at the roots of ``g`` in ``(lo, hi]`` (Basu, Pollack
    and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2), and the
    interval holds exactly one.
    """
    if record.value is not None:
        return sign_at(poly, record.value)
    g = record.defining_factor()
    chain = _remainder_sequence(g, g.derivative() * poly)  # only g when poly is 0: sign 0
    return count_distinct_roots(chain, *record.interval)  # Var(lo) - Var(hi)


# ---------------------------------------------------------------------------
# Root isolation in the unit interval
# ---------------------------------------------------------------------------

def _isolate(chain: Sequence[Sequence[int]], a: int, c: int, q: int,
             var_a: int, var_c: int) -> list[tuple[int, int, int]]:
    """Disjoint subintervals ``(a'/q', c'/q']`` of ``(a/q, c/q]``, each holding one distinct root.

    ``var_a`` and ``var_c`` are the chain's sign variations at the two ends;
    each subinterval comes back as ``(a', c', q')``, with ``q'`` the halved
    interval's denominator ``q 2^k``. The chain's polynomial must be
    square-free, so that endpoints may be roots.
    Halving runs on an explicit stack, left half first, so the intervals come
    out in order; roots 1e-300 apart take about 1000 halvings, past the
    interpreter's recursion limit.
    """
    out, stack = [], [(a, c, q, var_a, var_c)]
    while stack:
        a, c, q, var_a, var_c = stack.pop()
        count = var_a - var_c
        if count == 1:
            out.append((a, c, q))
        elif count:
            var_mid = _sign_variations(chain, a + c, 2 * q)
            stack.append((a + c, 2 * c, 2 * q, var_mid, var_c))
            stack.append((2 * a, a + c, 2 * q, var_a, var_mid))
    return out


def _nearest_fraction(p: int, q: int, n: int) -> tuple[int, int]:
    """The fraction with denominator at most ``n`` nearest ``p/q``, for ``q > 0``.

    :meth:`Fraction.limit_denominator` in integers, without the ``Fraction``
    objects it builds, returned as ``(numerator, denominator)`` in lowest
    terms: the last convergent of the continued fraction of ``p/q`` with
    denominator at most ``n``, or the semiconvergent after it when that is
    nearer (the convergent on a tie).
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = p, q
    while den:
        a = num // den
        q2 = q0 + a * q1
        if q2 > n:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    else:
        return p1, q1
    k = (n - q0) // q1
    # p1/q1 is den / (q1 q) from p/q, and 1 / (q1 (q0 + k q1)) from the other.
    if 2 * den * (q0 + k * q1) <= q:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def roots_in_unit_interval(
    poly: RatPoly, refine_width: Fraction = DEFAULT_REFINE_WIDTH
) -> list[RootRecord]:
    """All roots of ``poly`` in [0, 1], sorted, with exact multiplicities.

    Rational roots come back as exact values; irrational roots as isolating
    intervals refined to at most ``refine_width``, with a float approximation
    at the midpoint. One signed remainder sequence of ``poly`` and its
    derivative serves both the square-free test and the isolation: when its
    last member, Yun's first gcd, is a constant, ``poly`` is square-free and
    the sequence is the Sturm chain of the radical (see
    :func:`_squarefree_split`); only a polynomial with a repeated factor has
    the chain of its radical built anew. One sweep decides the Sturm
    intervals ``(lo, hi]``, held as integers ``(a, c, q)``, in increasing
    order, each holding one root of the radical: the root is ``hi``, or a
    rational read off the interval by the nearest fraction, or irrational
    and refined there. ``Fraction`` values are built only for the records.
    Refinement is the interval that halving the
    Sturm interval reaches; :func:`_bisect` gets there with a checked Newton
    guess (its warm start), which Sturm isolation makes valid by leaving
    exactly one root of the radical in each interval. The halving then stops
    at the first cell that holds neither end of the Sturm interval that is 0,
    1 or a root; no other rational root, nor 0 or 1, can lie in that closed
    interval. So the refined intervals are pairwise disjoint, disjoint from
    every rational root, and hold neither 0 nor 1: a point fits between each
    irrational root and its neighbours. Raises ``ValueError`` for the zero
    polynomial.
    """
    if poly.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere; roots are undefined")
    if refine_width <= 0:
        raise ValueError("refine_width must be positive")
    factors, chain = _squarefree_split(poly)
    if not factors:
        return []
    chain = chain or sturm_chain(functools.reduce(RatPoly.__mul__, (f for f, _m in factors)))

    def record(lo: Fraction, hi: Fraction) -> RootRecord:
        # The root belongs to the one factor that vanishes at lo = hi, or
        # changes sign over the irrational root's interval (lo, hi); a lone
        # factor owns every root.
        for factor, mult in factors:
            sign_lo = len(factors) > 1 and sign_at(factor, lo)
            if not sign_lo or sign_lo != sign_at(factor, hi):
                if lo == hi:
                    return RootRecord(mult, value=lo, factor=factor)
                return RootRecord(mult, interval=(lo, hi), factor=factor)
        raise ArithmeticError("root does not belong to any square-free factor")

    # A rational root of the radical has a denominator dividing n, the
    # leading primitive coefficient, so distinct candidates lie at least 1/n^2
    # apart. In an interval at most that wide around a rational root, the
    # fraction with denominator at most n nearest the midpoint is the root.
    # Halving to 1/n^2 when it is finer than refine_width passes through the
    # interval that refinement reaches first, so an irrational root resumes
    # from that ancestor of its cell.
    ints = chain[0]  # the radical's, up to a sign that no test below reads
    n = abs(ints[-1])
    refine_width = Fraction(refine_width)
    width = min(Fraction(1, n * n), refine_width)
    records = [record(Fraction(0), Fraction(0))] if ints[0] == 0 else []
    for a, c, q in _isolate(chain, 0, 1, 1, _sign_variations(chain, 0, 1),
                            _sign_variations(chain, 1, 1)):
        if _int_sign(ints, c, q) == 0:
            records.append(record(Fraction(c, q), Fraction(c, q)))
            continue
        left, right, cell_q = _bisect(ints, a, c, q, _wider_than(width),
                                      _levels_to(c - a, q, width))
        u, v = _nearest_fraction(left + right, 2 * cell_q, n)
        if _int_sign(ints, u, v) == 0 and a * v < u * q < c * v:
            records.append(record(Fraction(u, v), Fraction(u, v)))
            continue
        if width < refine_width:
            left, right, cell_q = _ancestor(a, c, q, left, cell_q, refine_width)
        # The root is irrational and c/q is not a root, so of 0, 1 and the
        # rational roots a cell can hold only a/q, when it is 0 or the last
        # root, and c/q, when it is 1. Halving keeps them out, since the
        # owning factor may share a rational root and the classifier probes
        # on both sides of the root. It follows the one root of the radical
        # in (a/q, c/q], even where a/q is a root.
        last = records[-1].value if records else None
        ends = [Fraction(x, q) for x in (a, c) if x in (0, q)
                or last is not None and x * last.denominator == last.numerator * q]
        left, right, cell_q = _bisect(ints, left, right, cell_q, _holding(ends))
        records.append(record(Fraction(left, cell_q), Fraction(right, cell_q)))
    return records

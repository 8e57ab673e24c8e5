"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are :class:`fractions.Fraction` throughout, so every operation in
this module is exact: evaluation, arithmetic, gcd, square-free decomposition,
and root isolation produce certified answers with no floating-point error.
Roots of a polynomial inside the unit interval are returned either as exact
rational values or as arbitrarily narrow isolating intervals with exact
rational endpoints (irrational roots), together with their multiplicity.

Every sign decision rests on one primitive, :func:`sign_at`: the sign at
``p/q`` of a polynomial with primitive integer coefficients ``c_i`` is the
sign of the integer ``sum c_i p^i q^(n-i)``, one integer Horner pass with no
``Fraction`` arithmetic. Sturm sequences isolate the distinct roots; a
rational root is read off its isolating interval, narrowed until at most one
fraction with a small enough denominator fits. The sign of another
polynomial at an irrational root is a Sturm-Tarski query: a difference of
sign variations at the two ends of the root's isolating interval.

The unit interval is the natural domain here because these polynomials arise
as drift and noise curves of urn processes whose state is a proportion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

#: Default width to which isolating intervals of irrational roots are refined.
DEFAULT_REFINE_WIDTH = Fraction(1, 10**12)

LEFT_BOUNDARY = "left-boundary"
RIGHT_BOUNDARY = "right-boundary"
INTERIOR = "interior"


def parse_rational(value) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Accepts ints, Fractions, strings such as ``"3"``, ``"-3/4"`` or ``"0.25"``
    (parsed exactly), and floats (converted via their shortest decimal
    representation, so ``0.1`` becomes ``1/10``).
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
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"not a rational number: {value!r}")


def format_rational(value: Rational) -> str:
    """Render a rational as a string that :func:`parse_rational` round-trips.

    Integers render bare (``"3"``), everything else as ``"p/q"``.
    """
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _as_fraction_tuple(coeffs: Iterable[Rational]) -> tuple[Fraction, ...]:
    out = tuple(Fraction(c) for c in coeffs)
    # Trim trailing zero coefficients so degree and equality are canonical.
    end = len(out)
    while end > 0 and out[end - 1] == 0:
        end -= 1
    return out[:end]


@dataclass(frozen=True)
class RatPoly:
    """A polynomial with exact rational coefficients, stored lowest power first."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational] = ()):  # noqa: D107
        object.__setattr__(self, "coeffs", _as_fraction_tuple(coeffs))

    # -- basic structure ---------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coeff(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, power: int) -> Fraction:
        """Coefficient of ``x**power`` (zero beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "RatPoly | Rational") -> "RatPoly":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other: "RatPoly | Rational") -> "RatPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "RatPoly | Rational") -> "RatPoly":
        return _coerce(other) - self

    def __mul__(self, other: "RatPoly | Rational") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(c * other for c in self.coeffs)
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

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

    def __divmod__(self, divisor: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        divisor = _coerce(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [Fraction(0)] * max(len(self.coeffs) - len(divisor.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlc = divisor.leading_coeff
        ddeg = divisor.degree
        for k in range(len(rem) - 1, ddeg - 1, -1):
            factor = rem[k] / dlc
            if factor == 0:
                continue
            quotient[k - ddeg] = factor
            for j, c in enumerate(divisor.coeffs):
                rem[k - ddeg + j] -= factor * c
        return RatPoly(quotient), RatPoly(rem)

    def __floordiv__(self, divisor: "RatPoly") -> "RatPoly":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "RatPoly") -> "RatPoly":
        return divmod(self, divisor)[1]

    # -- calculus and evaluation --------------------------------------------
    def evaluate(self, x):
        """Evaluate by Horner's rule; exact when ``x`` is int or Fraction."""
        result = 0 * x  # matches the numeric type of x
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __call__(self, x):
        return self.evaluate(x)

    def derivative(self) -> "RatPoly":
        return RatPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    # -- normal forms --------------------------------------------------------
    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        lc = self.leading_coeff
        return RatPoly(c / lc for c in self.coeffs)

    def primitive_integer_coeffs(self) -> tuple[int, ...]:
        """Integer coefficients after clearing denominators and common factors.

        The returned tuple is a positive rational multiple of ``coeffs`` with
        the same sign pattern (the rescaling constant is positive), so roots
        and signs are preserved.
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no primitive form")
        lcm = 1
        for c in self.coeffs:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        ints = [c.numerator * (lcm // c.denominator) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        return tuple(v // g for v in ints)

    # -- presentation ---------------------------------------------------------
    def coefficient_strings(self) -> list[str]:
        """Coefficients as ``"p/q"`` strings, lowest power first."""
        return [format_rational(c) for c in self.coeffs]

    def to_text(self) -> str:
        """Human-readable form such as ``3 - 22*x + 48*x^2``."""
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            mag_s = format_rational(mag)
            if i == 0:
                term = mag_s
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == 1 else f"{mag_s}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatPoly({self.to_text()!r})"


def _coerce(value) -> RatPoly:
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return RatPoly([Fraction(value)])
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


# ---------------------------------------------------------------------------
# gcd and square-free structure
# ---------------------------------------------------------------------------

def poly_gcd(p: RatPoly, q: RatPoly) -> RatPoly:
    """Monic greatest common divisor (gcd of anything with zero is the other)."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not q.is_zero:
        p, q = q, p % q
    return p.monic()


def squarefree_decomposition(p: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Split ``p`` into monic square-free factors with multiplicities.

    Returns ``(constant, [(factor, multiplicity), ...])`` such that
    ``p == constant * prod(factor**multiplicity)``, each factor is monic and
    square-free and the factors are pairwise coprime (Yun's algorithm).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no square-free decomposition")
    constant = p.leading_coeff
    if p.degree == 0:
        return constant, []
    f = p.monic()
    deriv = f.derivative()
    g0 = poly_gcd(f, deriv)
    if g0.degree == 0:
        return constant, [(f, 1)]
    b = f // g0
    c = deriv // g0
    d = c - b.derivative()
    factors: list[tuple[RatPoly, int]] = []
    mult = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            factors.append((a, mult))
        b = b // a
        c = d // a
        d = c - b.derivative()
        mult += 1
    return constant, factors


def radical(p: RatPoly) -> RatPoly:
    """Monic product of the distinct irreducible factors (each root once)."""
    _, factors = squarefree_decomposition(p)
    return math.prod((factor for factor, _m in factors), start=RatPoly([1]))


# ---------------------------------------------------------------------------
# Signs at rational points and Sturm sequences
# ---------------------------------------------------------------------------

def _int_sign(ints: Sequence[int], p: int, q: int) -> int:
    """Sign of ``sum ints[i] * p**i * q**(n-i)``, by Horner's rule in integers.

    For ``q > 0`` this is the sign of the polynomial with coefficients
    ``ints`` at ``p/q`` (the sum is that value times ``q**n``).
    """
    acc = ints[-1]
    q_power = 1
    for c in ints[-2::-1]:
        q_power *= q
        acc = acc * p + c * q_power
    return (acc > 0) - (acc < 0)


def sign_at(poly: RatPoly, x: Rational) -> int:
    """Exact sign (-1, 0, +1) of ``poly`` at the rational ``x``.

    Decided by :func:`_int_sign` on the primitive integer coefficients, which
    are a positive multiple of ``poly``'s.
    """
    if poly.is_zero:
        return 0
    x = Fraction(x)
    return _int_sign(poly.primitive_integer_coeffs(), x.numerator, x.denominator)


def _normalize_signs(p: RatPoly) -> RatPoly:
    """Rescale by a positive constant to small integer coefficients."""
    if p.is_zero:
        return p
    ints = p.primitive_integer_coeffs()
    if (ints[-1] > 0) != (p.leading_coeff > 0):
        ints = tuple(-v for v in ints)
    return RatPoly(ints)


def _remainder_sequence(p: RatPoly, q: RatPoly) -> list[RatPoly]:
    """Signed remainder sequence ``p, q, -(p mod q), ...`` to its last nonzero member.

    Each member is rescaled by a positive constant (:func:`_normalize_signs`),
    which changes no sign.
    """
    seq = [_normalize_signs(p), _normalize_signs(q)]
    while not seq[-1].is_zero:
        seq.append(_normalize_signs(-(seq[-2] % seq[-1])))
    return seq[:-1]


def sturm_chain(p: RatPoly) -> list[RatPoly]:
    """Canonical chain of sign-alternating remainders used to count roots."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no root-counting chain")
    return _remainder_sequence(p, p.derivative())


def _sign_variations(chain: Sequence[RatPoly], x: Fraction) -> int:
    signs = [s for s in (sign_at(member, x) for member in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(chain: Sequence[RatPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct roots of the chain's polynomial in ``(lo, hi]``.

    When that polynomial is square-free, ``lo`` and ``hi`` may be roots;
    otherwise neither may be.
    """
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


# ---------------------------------------------------------------------------
# Root records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootRecord:
    """One root of a polynomial within the closed unit interval.

    Exactly one of ``value`` (exact rational root) and ``interval`` (open
    isolating interval with rational endpoints around an irrational root) is
    set. ``factor`` is the monic square-free factor whose simple sign change
    pins this root; it drives :meth:`within` and exact sign queries. The
    location, the float approximation and the bounds follow from these.
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
        inside or wholly outside.
        """
        if self.value is not None:
            v = self.value
            return lower < v < upper if strict else lower <= v <= upper
        lo, hi = _bisect(self.factor, *self.interval, _holding((lower, upper)))
        return lower < lo and hi < upper


def _bisect(poly: RatPoly, lo: Fraction, hi: Fraction, keep_halving) -> tuple[Fraction, Fraction]:
    """Halve ``(lo, hi)`` around the one sign change of ``poly`` while asked to.

    The interval is held as ``(a/q, c/q)`` over a common denominator
    ``q > 0`` that doubles with each halving, and ``keep_halving(a, c, q)``
    decides whether to halve again. The sign at the midpoint is decided by
    :func:`_int_sign` on ``poly``'s primitive integer coefficients, and the
    sign at ``lo`` is carried forward, so each halving costs one exact
    integer evaluation. If ``poly`` vanishes at ``lo``, the sign just right of
    it, opposite to the sign at ``hi``, is carried instead. A midpoint that is
    a root of ``poly`` ends the halving with ``(mid, mid)``.
    """
    ints = poly.primitive_integer_coeffs()
    q = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    c = hi.numerator * (q // hi.denominator)
    sign_lo = _int_sign(ints, a, q) or -_int_sign(ints, c, q)
    while keep_halving(a, c, q):
        mid = a + c
        a, c, q = 2 * a, 2 * c, 2 * q
        sign_mid = _int_sign(ints, mid, q)
        if sign_mid == 0:
            return Fraction(mid, q), Fraction(mid, q)
        if sign_mid != sign_lo:
            c = mid
        else:
            a = mid
    return Fraction(a, q), Fraction(c, q)


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
    signs of ``poly`` at the roots of ``g`` in ``(lo, hi]`` (Basu, Pollack and
    Roy, *Algorithms in Real Algebraic Geometry*, ch. 2), and the interval
    holds exactly one.
    """
    if record.value is not None:
        return sign_at(poly, record.value)
    g = record.factor
    chain = _remainder_sequence(g, g.derivative() * poly)
    lo, hi = record.interval
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


# ---------------------------------------------------------------------------
# Root isolation in the unit interval
# ---------------------------------------------------------------------------

def _isolate(chain: Sequence[RatPoly], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint subintervals ``(lo', hi']`` of ``(lo, hi]`` each holding one distinct root.

    The chain's polynomial must be square-free, so that endpoints may be roots.
    """
    count = count_distinct_roots(chain, lo, hi)
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    return _isolate(chain, lo, mid) + _isolate(chain, mid, hi)


def roots_in_unit_interval(
    poly: RatPoly, refine_width: Fraction = DEFAULT_REFINE_WIDTH
) -> list[RootRecord]:
    """All roots of ``poly`` in [0, 1], sorted, with exact multiplicities.

    Rational roots come back as exact values; irrational roots as isolating
    intervals refined to at most ``refine_width``, with a float approximation
    at the midpoint. Isolating intervals are pairwise disjoint and disjoint
    from every rational root. Raises ``ValueError`` for the zero polynomial.
    """
    if poly.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere; roots are undefined")
    if refine_width <= 0:
        raise ValueError("refine_width must be positive")
    _, factors = squarefree_decomposition(poly)
    if not factors:
        return []

    rad = math.prod((factor for factor, _m in factors), start=RatPoly([1]))

    def multiplicity_of(on_root) -> tuple[int, RatPoly]:
        for factor, mult in factors:
            if on_root(factor):
                return mult, factor
        raise ArithmeticError("root does not belong to any square-free factor")

    # A rational root of the radical has a denominator dividing n, the
    # leading primitive coefficient, so distinct candidates lie at least 1/n^2
    # apart. In an interval at most that wide around a rational root, the
    # fraction with denominator at most n nearest the midpoint is the root.
    n = abs(rad.primitive_integer_coeffs()[-1])
    rational_roots = [Fraction(0)] if sign_at(rad, 0) == 0 else []
    irrational: list[tuple[Fraction, Fraction]] = []
    for lo, hi in _isolate(sturm_chain(rad), Fraction(0), Fraction(1)):
        if sign_at(rad, hi) == 0:
            rational_roots.append(hi)
            continue
        a, c = _bisect(rad, lo, hi, _wider_than(Fraction(1, n * n)))
        candidate = ((a + c) / 2).limit_denominator(n)
        if lo < candidate < hi and sign_at(rad, candidate) == 0:
            rational_roots.append(candidate)
        else:
            irrational.append((lo, hi))

    records = []
    for r in rational_roots:
        mult, factor = multiplicity_of(lambda f, r=r: sign_at(f, r) == 0)
        records.append(RootRecord(mult, value=r, factor=factor))

    wider, holding = _wider_than(Fraction(refine_width)), _holding(rational_roots)

    def keep_halving(a: int, c: int, q: int) -> bool:
        # Until the interval is narrow and free of rational roots, which the
        # owning factor may share.
        return wider(a, c, q) or holding(a, c, q)

    # Each isolating interval holds one root of the radical, so halving the
    # radical follows that root even where lo is a rational root.
    for lo, hi in irrational:
        lo, hi = _bisect(rad, lo, hi, keep_halving)
        mult, factor = multiplicity_of(
            lambda f, lo=lo, hi=hi: sign_at(f, lo) != sign_at(f, hi)
        )
        records.append(RootRecord(mult, interval=(lo, hi), factor=factor))

    records.sort(key=lambda rec: rec.position())
    return records

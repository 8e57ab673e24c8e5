"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are :class:`fractions.Fraction` throughout, so every operation in
this module is exact: evaluation, arithmetic, gcd, square-free decomposition,
and root isolation produce certified answers with no floating-point error.
Roots of a polynomial inside the unit interval are returned either as exact
rational values or as arbitrarily narrow isolating intervals with exact
rational endpoints (irrational roots), together with their multiplicity.

Isolating intervals are narrowed by one bisection routine. It keeps both
endpoints over one denominator ``q > 0`` and decides the sign at ``p/q``
from the primitive integer coefficients ``c_i`` as the sign of the integer
``sum c_i p^i q^(n-i)``, so each halving costs one integer Horner pass and
no ``Fraction`` arithmetic.

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
        ints = [int(c * lcm) for c in self.coeffs]
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
            mag_s = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
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

    # -- convenience constructors ---------------------------------------------
    @staticmethod
    def from_roots(roots: Sequence[Rational], scale: Rational = 1) -> "RatPoly":
        """Build ``scale * prod (x - r)`` over the given rational roots."""
        poly = RatPoly([Fraction(scale)])
        for r in roots:
            poly = poly * RatPoly([-Fraction(r), Fraction(1)])
        return poly


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
    out = RatPoly([1])
    for factor, _m in factors:
        out = out * factor
    return out


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------

def _normalize_signs(p: RatPoly) -> RatPoly:
    """Rescale by a positive constant to small integer coefficients."""
    if p.is_zero:
        return p
    ints = p.primitive_integer_coeffs()
    if (ints[-1] > 0) != (p.leading_coeff > 0):
        ints = tuple(-v for v in ints)
    return RatPoly(ints)


def sturm_chain(p: RatPoly) -> list[RatPoly]:
    """Canonical chain of sign-alternating remainders used to count roots."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no root-counting chain")
    chain = [_normalize_signs(p)]
    if p.degree == 0:
        return chain
    chain.append(_normalize_signs(p.derivative()))
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            break
        chain.append(_normalize_signs(-rem))
    return chain


def _sign_variations(chain: Sequence[RatPoly], x: Fraction) -> int:
    signs = []
    for member in chain:
        v = member.evaluate(x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(chain: Sequence[RatPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct roots of the chain's polynomial in ``(lo, hi]``.

    Requires ``lo`` not to be a root.
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
    pins this root; it drives further interval refinement and exact sign
    queries. ``approx`` is a float approximation good to the isolation width.
    """

    multiplicity: int
    location: str  # one of INTERIOR, LEFT_BOUNDARY, RIGHT_BOUNDARY
    approx: float
    value: Fraction | None = None
    interval: tuple[Fraction, Fraction] | None = None
    factor: RatPoly | None = None

    @classmethod
    def exact(
        cls, value: Rational, multiplicity: int = 1, factor: RatPoly | None = None
    ) -> "RootRecord":
        """The record of a root at the rational ``value``, located from the value itself."""
        v = Fraction(value)
        location = LEFT_BOUNDARY if v == 0 else RIGHT_BOUNDARY if v == 1 else INTERIOR
        return cls(multiplicity, location, float(v), value=v, factor=factor)

    def position(self) -> Fraction:
        """Exact value, or the midpoint of the isolating interval."""
        if self.value is not None:
            return self.value
        lo, hi = self.interval
        return (lo + hi) / 2


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


def _bisect(poly: RatPoly, lo: Fraction, hi: Fraction, keep_halving) -> tuple[Fraction, Fraction]:
    """Halve ``(lo, hi)`` around the one sign change of ``poly`` while asked to.

    The interval is held as ``(a/q, c/q)`` over a common denominator
    ``q > 0`` that doubles with each halving, and ``keep_halving(a, c, q)``
    decides whether to halve again. The sign at the midpoint is decided by
    :func:`_int_sign` on ``poly``'s primitive integer coefficients, and the
    sign at ``lo`` is carried forward, so each halving costs one exact
    integer evaluation. ``poly`` must not vanish at ``lo``.
    """
    ints = poly.primitive_integer_coeffs()
    q = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    c = hi.numerator * (q // hi.denominator)
    sign_lo = _int_sign(ints, a, q)
    while keep_halving(a, c, q):
        mid = a + c
        a, c, q = 2 * a, 2 * c, 2 * q
        sign_mid = _int_sign(ints, mid, q)
        if sign_mid == 0:
            # The tracked root is irrational, so a rational midpoint is never
            # the root itself; a zero here cannot happen for the owning factor.
            raise ArithmeticError("isolating interval midpoint unexpectedly a root")
        if sign_mid != sign_lo:
            c = mid
        else:
            a = mid
    return Fraction(a, q), Fraction(c, q)


def _wider_than(width: Fraction):
    """``keep_halving`` test of :func:`_bisect`: the interval is wider than ``width``."""
    return lambda a, c, q: (c - a) * width.denominator > width.numerator * q


def refine_root(record: RootRecord, width: Fraction) -> RootRecord:
    """Shrink an irrational root's isolating interval to at most ``width``.

    Rational roots are returned unchanged (their width is already zero).
    """
    if record.value is not None:
        return record
    lo, hi = _bisect(record.factor, *record.interval, _wider_than(Fraction(width)))
    return RootRecord(
        multiplicity=record.multiplicity,
        location=record.location,
        approx=float((lo + hi) / 2),
        value=None,
        interval=(lo, hi),
        factor=record.factor,
    )


def sign_at_root(poly: RatPoly, record: RootRecord) -> int:
    """Exact sign (-1, 0, +1) of ``poly`` at the root described by ``record``.

    For rational roots this is direct evaluation. For irrational roots the
    answer is still exact: the root is a common zero of ``poly`` iff the gcd
    of ``poly`` with the root's square-free factor changes sign across the
    isolating interval; otherwise the interval is shrunk (around the root)
    until ``poly`` has no zero inside it, making its sign there constant.
    """
    if record.value is not None:
        v = poly.evaluate(record.value)
        return 0 if v == 0 else (1 if v > 0 else -1)
    if poly.is_zero:
        return 0
    if poly.degree >= 1:
        common = poly_gcd(poly, record.factor)
        if common.degree >= 1:
            lo, hi = record.interval
            c_lo = common.evaluate(lo)
            c_hi = common.evaluate(hi)
            if c_lo == 0 or c_hi == 0 or (c_lo > 0) != (c_hi > 0):
                return 0
    chain = sturm_chain(poly)

    def unsettled(a: int, c: int, q: int) -> bool:
        lo, hi = Fraction(a, q), Fraction(c, q)
        return (
            poly.evaluate(lo) == 0
            or poly.evaluate(hi) == 0
            or count_distinct_roots(chain, lo, hi) != 0
        )

    lo, _ = _bisect(record.factor, *record.interval, unsettled)
    return 1 if poly.evaluate(lo) > 0 else -1


# ---------------------------------------------------------------------------
# Root isolation in the unit interval
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _rational_roots_in_unit_interval(square_free: RatPoly) -> list[Fraction]:
    """All rational roots of a square-free polynomial within [0, 1]."""
    ints = list(square_free.primitive_integer_coeffs())
    roots = []
    # Strip the root at zero first so the constant term is nonzero.
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints.pop(0)
    if len(ints) > 1:
        a0, an = ints[0], ints[-1]
        candidates = set()
        for num in _divisors(a0):
            for den in _divisors(an):
                if num <= den and math.gcd(num, den) == 1:
                    candidates.add(Fraction(num, den))
        poly = RatPoly(ints)
        for cand in candidates:
            if poly.evaluate(cand) == 0:
                roots.append(cand)
    return sorted(roots)


def _isolate(chain: Sequence[RatPoly], poly: RatPoly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open subintervals of (lo, hi) each holding one distinct root.

    ``poly`` must have no rational roots in [lo, hi] (so no chosen endpoint
    can land on a root) and must not vanish at lo or hi.
    """
    count = count_distinct_roots(chain, lo, hi)
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    return _isolate(chain, poly, lo, mid) + _isolate(chain, poly, mid, hi)


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

    rad = RatPoly([1])
    for factor, _m in factors:
        rad = rad * factor

    def multiplicity_of(point_eval) -> tuple[int, RatPoly]:
        for factor, mult in factors:
            if point_eval(factor):
                return mult, factor
        raise ArithmeticError("root does not belong to any square-free factor")

    records: list[RootRecord] = []

    rational_roots = _rational_roots_in_unit_interval(rad)
    for r in rational_roots:
        mult, factor = multiplicity_of(lambda f, r=r: f.evaluate(r) == 0)
        records.append(RootRecord.exact(r, mult, factor))

    # Remove the rational roots and isolate what is left (irrational roots).
    remainder = rad
    for r in rational_roots:
        remainder = remainder // RatPoly([-r, 1])
    if remainder.degree >= 1:
        chain = sturm_chain(remainder)
        zero, one = Fraction(0), Fraction(1)
        wider = _wider_than(Fraction(refine_width))

        def keep_halving(a: int, c: int, q: int) -> bool:
            # Until the interval is free of rational roots (which the
            # remainder lacks but its owning factor may have) and narrow.
            return wider(a, c, q) or any(
                a * r.denominator <= r.numerator * q <= c * r.denominator
                for r in rational_roots
            )

        for lo, hi in _isolate(chain, remainder, zero, one):
            lo, hi = _bisect(remainder, lo, hi, keep_halving)
            mult, factor = multiplicity_of(
                lambda f, lo=lo, hi=hi: (f.evaluate(lo) > 0) != (f.evaluate(hi) > 0)
            )
            records.append(
                RootRecord(
                    multiplicity=mult,
                    location=INTERIOR,
                    approx=float((lo + hi) / 2),
                    interval=(lo, hi),
                    factor=factor,
                )
            )

    records.sort(key=lambda rec: rec.position())
    return records

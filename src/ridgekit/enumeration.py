"""A computable bijection between positive integers and rational polynomials.

The enumeration is a pairing tower, fixed bit-exactly so indices are stable
across runs and implementations:

* positive rationals <-> positive integers through the Calkin-Wilf tree
  (index 1 is 1/1; the left child of a/b is a/(a+b), the right child is
  (a+b)/b; the index's binary digits below the leading 1 record the
  root-to-node path);
* arbitrary rationals fold the sign in: 0 -> 0, q > 0 -> 2*cw(q) - 1,
  q < 0 -> 2*cw(-q);
* a coefficient list (c_0 .. c_D, c_D != 0) maps each entry through the
  rational code, decrements the last (nonzero) code, and folds the list
  right-to-left with the Cantor pair;
* finally m = 2 + pair(D, folded), and index 1 is reserved for the zero
  polynomial.

Encoding checks every integer it builds, the exact index included, against
one cap of ``_BIT_CAP`` bits: :func:`calkin_wilf_index` and
:func:`encode_poly` raise OverflowError beyond it.

Decoding is total on positive integers of any size.  Indices decode to
polynomials whose degree can be astronomically larger than the number of
nonzero terms, so polynomials are stored sparsely and zero runs are folded
in closed form (pair(0, 0) = 0) instead of one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import Sequence

from .rationals import RationalLike, rationalize


def cantor_pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


_BIT_CAP = 4_000_000  # the longest integer, in bits, that encoding builds


def _check_bits(bits: int) -> None:
    if bits > _BIT_CAP:
        raise OverflowError(f"the index would be longer than the {_BIT_CAP:,}-bit cap")


def calkin_wilf_index(q: Fraction) -> int:
    """Index (>= 1) of a positive rational in the Calkin-Wilf tree.

    The index's bit length is the sum of the continued-fraction quotients of
    ``q``, so rationals with a huge quotient (like 10^9 or 1/10^9) have
    indices too large to materialize; beyond the cap they raise OverflowError.
    """
    if q <= 0:
        raise ValueError("calkin_wilf_index needs a positive rational")
    num, den = q.numerator, q.denominator
    runs: list[tuple[str, int]] = []  # path segments, leaf upward
    total_bits = 0
    while num != den:
        if num < den:
            k = (den - 1) // num  # steps of den -= num while still num < den
            runs.append(("0", k))
            den -= k * num
        else:
            k = (num - 1) // den
            runs.append(("1", k))
            num -= k * den
        total_bits += k
        _check_bits(total_bits + 1)
    bits = "".join(bit * count for bit, count in reversed(runs))
    return int("1" + bits, 2)


def calkin_wilf_rational(index: int) -> Fraction:
    """Inverse of :func:`calkin_wilf_index`."""
    if index < 1:
        raise ValueError("index must be >= 1")
    num, den = 1, 1
    for bit in bin(index)[3:]:
        if bit == "0":
            den = num + den
        else:
            num = num + den
    return Fraction(num, den)


def rational_code(q: Fraction) -> int:
    """Sign-folded rational code: a bijection rationals <-> nonnegative integers."""
    if q == 0:
        return 0
    c = calkin_wilf_index(abs(q))
    return 2 * c - 1 if q > 0 else 2 * c


def code_rational(z: int) -> Fraction:
    if z < 0:
        raise ValueError("codes are nonnegative")
    if z == 0:
        return Fraction(0)
    if z % 2 == 1:
        return calkin_wilf_rational((z + 1) // 2)
    return -calkin_wilf_rational(z // 2)


_EVAL_DEGREE_CAP = 100_000


@dataclass(frozen=True)
class RationalPoly:
    """A polynomial with exact rational coefficients, stored sparsely.

    ``terms`` holds (exponent, coefficient) pairs with ascending exponents
    and nonzero coefficients; the empty tuple is the zero polynomial.  The
    sparse form matters: decoded indices can have enormous degree with only
    a handful of nonzero terms.
    """

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        last = -1
        for e, c in self.terms:
            if e <= last:
                raise ValueError("exponents must be strictly ascending")
            if c == 0:
                raise ValueError("stored coefficients must be nonzero")
            last = e

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[RationalLike]) -> "RationalPoly":
        """Dense constant-first coefficient list; zeros are dropped."""
        terms = []
        for e, c in enumerate(coeffs):
            q = rationalize(c)
            if q != 0:
                terms.append((e, q))
        return cls(tuple(terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    @cached_property
    def _integer_terms(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(D, ((e, D * c_e), ...))``: the coefficients over their common denominator ``D``."""
        common = lcm(*(c.denominator for _, c in self.terms))
        return common, tuple((e, c.numerator * (common // c.denominator)) for e, c in self.terms)

    def eval_ratio(self, num: int, den: int) -> tuple[int, int]:
        """The value at ``num / den`` (``den > 0``) as an unreduced integer ratio.

        A sparse Horner on integers, top term first: with ``A_e = D * c_e``,
        ``I = I * num**gap + A_e * den**(degree - e)``, and the value is
        ``I * num**e0 / (D * den**degree)`` for the lowest exponent ``e0``.
        """
        if self.degree > _EVAL_DEGREE_CAP:
            raise ValueError("degree too large to evaluate")
        if not self.terms:
            return 0, 1
        common, terms = self._integer_terms
        prev_e, acc = terms[-1]
        den_power = 1  # den ** (degree - prev_e)
        for e, a in reversed(terms[:-1]):
            gap = prev_e - e
            den_power *= den**gap
            acc = acc * num**gap + a * den_power
            prev_e = e
        return acc * num**prev_e, common * den_power * den**prev_e

    def eval_exact(self, t: RationalLike) -> Fraction:
        x = rationalize(t)
        return Fraction(*self.eval_ratio(x.numerator, x.denominator))

    @cached_property
    def _float_terms(self) -> tuple[tuple[int, float], ...]:
        """``((e, float(c_e)), ...)``: each coefficient rounded once."""
        return tuple((e, float(c)) for e, c in self.terms)

    def eval_float(self, t: float) -> float:
        """The value at the float ``t``: the sum of ``float(c_e) * t**e``,
        term by term in ascending order, with each coefficient rounded once
        per polynomial (``_float_terms``), not once per call."""
        if self.degree > _EVAL_DEGREE_CAP:
            raise ValueError("degree too large to evaluate")
        total = 0.0
        for e, c in self._float_terms:
            total += c * t**e
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = [f"({c})*t^{e}" if e else f"({c})" for e, c in self.terms]
        return " + ".join(parts)


def _capped_pair(a: int, b: int) -> int:
    # a pair has at least 2 * max(operand bits) - 2 bits: one that must pass the cap is not built
    _check_bits(2 * max(a.bit_length(), b.bit_length()) - 2)
    z = cantor_pair(a, b)
    _check_bits(z.bit_length())
    return z


def _fold_zero_run(acc: int, count: int) -> int:
    """Apply acc -> pair(0, acc) ``count`` times; 0 is fixed, any other acc doubles in length."""
    if acc == 0:
        return acc
    for _ in range(count):
        acc = _capped_pair(0, acc)
    return acc


def encode_poly(p: RationalPoly) -> int:
    """Index of a polynomial under the enumeration (1 = zero polynomial), within the cap."""
    if p.is_zero:
        return 1
    terms = p.terms
    degree = terms[-1][0]
    acc = rational_code(terms[-1][1]) - 1
    prev_e = degree
    for e, c in reversed(terms[:-1]):
        acc = _fold_zero_run(acc, prev_e - e - 1)
        acc = _capped_pair(rational_code(c), acc)
        prev_e = e
    acc = _fold_zero_run(acc, prev_e)
    index = 2 + _capped_pair(degree, acc)
    _check_bits(index.bit_length())
    return index


def decode_poly(m: int) -> RationalPoly:
    """Total inverse of :func:`encode_poly` on positive integers."""
    if m < 1:
        raise ValueError("indices start at 1")
    if m == 1:
        return RationalPoly.zero()
    degree, folded = cantor_unpair(m - 2)
    codes: dict[int, int] = {}
    rest = folded
    completed = True
    for i in range(degree):
        if rest == 0:
            completed = False
            break
        z, rest = cantor_unpair(rest)
        if z:
            codes[i] = z
    top_code = (rest if completed else 0) + 1
    codes[degree] = top_code
    terms = tuple(sorted((e, code_rational(z)) for e, z in codes.items()))
    return RationalPoly(terms)

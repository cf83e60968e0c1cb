"""Exact rational ingestion and formatting.

Every quantity that feeds a density decision is kept as an exact
``fractions.Fraction``.  Floats are admitted at the boundary only, and are
rationalized by their exact binary expansion (``Fraction(float)``), so the
same float literal always maps to the same rational.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Union

RationalLike = Union[int, str, float, Fraction]

# Thresholds/indices can run to hundreds of thousands of digits; CPython caps
# int<->str conversion by default, so each conversion raises the cap and restores it.
_STR_DIGITS_MARGIN = 64
# CPython 3.11's int-to-str is quadratic: integers longer than this many bits
# are written by divide and conquer through ``decimal``, which is faster there.
_SPLIT_BITS = 40_000
_LEAF_BITS = 128  # the halves below this length are converted directly
# ``Fraction("1e-N")`` builds 10**N: N = 10**5 takes milliseconds, 10**7 seconds.
_MAX_EXPONENT = 10**5
_EXPONENT_DIGITS = len(str(_MAX_EXPONENT))


@contextmanager
def _str_digits(n_digits: int) -> Iterator[None]:
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if saved and n_digits + _STR_DIGITS_MARGIN > saved:
        sys.set_int_max_str_digits(n_digits + _STR_DIGITS_MARGIN)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


class ExponentBoundError(ValueError):
    """A decimal string whose exponent is beyond ``_MAX_EXPONENT`` in
    magnitude: a rational, refused for the size of its power of ten."""


def parse_int(text: str) -> int:
    """``int(text)``, with CPython's int-from-string digit limit raised to the text's length."""
    with _str_digits(len(text)):
        return int(text)


def rationalize(value: RationalLike) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Ints and Fractions pass through; strings accept "p/q", integer and
    decimal forms ("0.25" parses as the exact decimal 1/4); floats use their
    exact binary expansion.  A decimal exponent beyond ``_MAX_EXPONENT`` in
    magnitude raises :class:`ExponentBoundError`, a ``ValueError``, before
    its power of ten is built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        cut = max(text.rfind("e"), text.rfind("E"))
        if cut >= 0:
            digits = text[cut + 1 :].lstrip("+-").replace("_", "").lstrip("0")
            if digits.isdecimal() and (len(digits) > _EXPONENT_DIGITS or int(digits) > _MAX_EXPONENT):
                raise ExponentBoundError(f"decimal exponent beyond {_MAX_EXPONENT} in magnitude")
        with _str_digits(len(text)):
            return Fraction(text)
    raise TypeError(f"cannot rationalize {type(value).__name__}")


def _decimal_string(n: int) -> str:
    """``str(n)`` in subquadratic time, by divide and conquer through ``decimal``
    (the method of CPython 3.12's ``_pylong``).

    ``n``'s binary halves are converted on their own and joined as
    ``low + high * 2**half``, with the powers of two computed and kept in
    ``Decimal``, whose large products libmpdec forms in subquadratic time.
    """
    import decimal  # here, not at import: only integers past the split length need it

    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:  # 2**w as a Decimal
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = D(1 << w)
            elif w - 1 in powers:
                p = powers[w - 1] * 2
            else:
                p = power(w >> 1) * power(w - (w >> 1))
            powers[w] = p
        return p

    def convert(n: int, w: int) -> decimal.Decimal:  # n >= 0 has at most w bits
        if w <= _LEAF_BITS:
            return D(n)
        half = w >> 1
        high = n >> half
        return convert(n - (high << half), half) + convert(high, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), abs(n).bit_length()))
    return "-" + text if n < 0 else text


def _int_string(n: int) -> str:
    if n.bit_length() > _SPLIT_BITS:
        return _decimal_string(n)
    with _str_digits(n.bit_length() // 3 + 2):
        return str(n)


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p" or "p/q", safe for very large terms."""
    if q.denominator == 1:
        return _int_string(q.numerator)
    return f"{_int_string(q.numerator)}/{_int_string(q.denominator)}"

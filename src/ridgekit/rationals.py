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


def rationalize(value: RationalLike) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Ints and Fractions pass through; strings accept "p/q", integer and
    decimal forms ("0.25" parses as the exact decimal 1/4); floats use their
    exact binary expansion.
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
        with _str_digits(len(value)):
            return Fraction(value.strip())
    raise TypeError(f"cannot rationalize {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p" or "p/q", safe for very large terms."""
    with _str_digits(max(q.numerator.bit_length(), q.denominator.bit_length()) // 3 + 2):
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"

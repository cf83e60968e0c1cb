"""The integer <-> rational-polynomial bijection."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_sparse_poly
from ridgekit import (
    RationalPoly,
    calkin_wilf_index,
    calkin_wilf_rational,
    code_rational,
    decode_poly,
    encode_poly,
    rational_code,
)


class TestCalkinWilf:
    def test_root_and_children(self):
        assert calkin_wilf_rational(1) == 1
        assert calkin_wilf_rational(2) == Fraction(1, 2)
        assert calkin_wilf_rational(3) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**9))
    def test_round_trip(self, index):
        assert calkin_wilf_index(calkin_wilf_rational(index)) == index

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(
            min_value=Fraction(1, 300), max_value=300, max_denominator=300
        )
    )
    def test_round_trip_from_rational(self, q):
        assert calkin_wilf_rational(calkin_wilf_index(q)) == q

    def test_sign_folding(self):
        assert rational_code(Fraction(0)) == 0
        seen = {rational_code(q) for q in
                (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-2, 3))}
        assert len(seen) == 4
        for z in range(0, 64):
            assert rational_code(code_rational(z)) == z


class TestPolyCodec:
    def test_zero_is_one(self):
        assert encode_poly(RationalPoly.zero()) == 1
        assert decode_poly(1).is_zero

    def test_small_indices(self):
        for m in (1, 2, 3, 10, 100):
            assert encode_poly(decode_poly(m)) == m

    def test_sequential_round_trip(self):
        for m in range(1, 10_001):
            assert encode_poly(decode_poly(m)) == m

    def test_random_big_round_trip(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            m = rng.randrange(1, 10**50)
            assert encode_poly(decode_poly(m)) == m

    def test_degree_variety_in_first_thousand(self):
        degrees = {decode_poly(m).degree for m in range(1, 1001)}
        assert len(degrees) >= 2

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=40),
            min_size=0,
            max_size=6,
        )
    )
    def test_poly_round_trip(self, coeffs):
        p = RationalPoly.from_coefficients(coeffs)
        assert decode_poly(encode_poly(p)) == p

    def test_huge_sparse_decode_stays_sparse(self):
        p = decode_poly(10**50)
        assert p.degree > 10**20
        assert len(p.terms) < 100

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            decode_poly(0)


class TestBitCap:
    """Every index encoding builds, the exact one included, stays within 4,000,000 bits."""

    def test_index_beyond_the_cap_is_refused(self):
        with pytest.raises(OverflowError, match="4,000,000-bit cap"):
            encode_poly(RationalPoly.from_coefficients([Fraction(1, 1_100_000), 1]))

    def test_index_below_the_cap_round_trips(self):
        p = RationalPoly.from_coefficients([Fraction(1, 900_000), 1])
        m = encode_poly(p)
        assert m.bit_length() == 3_599_997
        assert decode_poly(m) == p

    def test_calkin_wilf_index_beyond_the_cap_is_refused(self):
        with pytest.raises(OverflowError, match="4,000,000-bit cap"):
            calkin_wilf_index(Fraction(1, 5_000_000))

    def test_long_zero_run_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(OverflowError):
            encode_poly(RationalPoly(((0, Fraction(2)), (10**9, Fraction(3)))))
        assert time.perf_counter() - start < 2.0


class TestRationalPoly:
    def test_canonical_trailing(self):
        p = RationalPoly.from_coefficients([1, 2, 0, 0])
        assert p.degree == 1

    def test_eval_exact(self):
        p = RationalPoly.from_coefficients([Fraction(1, 2), -1, Fraction(1, 3)])
        t = Fraction(3, 4)
        assert p.eval_exact(t) == Fraction(1, 2) - t + t * t / 3

    def test_eval_matches_float(self):
        p = RationalPoly.from_coefficients([1, 0, Fraction(-1, 4), Fraction(1, 8)])
        for x in (-1.0, -0.25, 0.0, 0.5, 1.0):
            assert p.eval_float(x) == pytest.approx(float(p.eval_exact(Fraction(x))))

    def test_eval_float_is_the_per_term_float_sum(self):
        """``eval_float`` rounds each coefficient once per polynomial and
        still sums ``float(c) * t**e`` term by term in ascending order: the
        same float, compared with ``==``."""

        def per_term(p: RationalPoly, t: float) -> float:
            total = 0.0
            for e, c in p.terms:
                total += float(c) * t**e
            return total

        rng = random.Random(35)
        polys = [random_sparse_poly(rng) for _ in range(500)]
        near_limit = Fraction(1.5e308)
        polys += [
            RationalPoly.from_coefficients([near_limit]),
            RationalPoly.from_coefficients([-near_limit, 0, Fraction(1, 3)]),
            RationalPoly(((0, Fraction(-7, 3)), (3, near_limit / 4))),
        ]
        for p in polys:
            for t in (0.0, -0.0, 1.0, -1.0, 0.5, -0.75, rng.uniform(-3, 3), -rng.uniform(0, 3)):
                want = per_term(p, t)
                got = p.eval_float(t)
                assert got == want and str(got) == str(want), (p, t)

    def test_float_cache_keeps_equality_and_hash(self):
        p = RationalPoly.from_coefficients([Fraction(1, 3), 0, Fraction(-2, 7)])
        assert p.eval_float(0.5) == p.eval_float(0.5)
        fresh = RationalPoly.from_coefficients([Fraction(1, 3), 0, Fraction(-2, 7)])
        assert p == fresh and hash(p) == hash(fresh)
        assert {p: 1}[fresh] == 1

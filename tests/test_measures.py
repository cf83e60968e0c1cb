"""Measure layer: pushforwards, total variation, integration, annihilation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import textbook_dot
from ridgekit import (
    Direction,
    DiscreteMeasure,
    Point,
    ProjectedMeasure,
    integrate,
    is_annihilating,
    pushforward,
    total_variation,
)
from ridgekit.measures import integer_columns

E1, E2, E3 = Direction.of(1, 0, 0), Direction.of(0, 1, 0), Direction.of(0, 0, 1)


def five_atom_measure() -> DiscreteMeasure:
    """Weights (-2, 1, 1, 1, -1) on the 3-d corner configuration."""
    pts = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    weights = [-2, 1, 1, 1, -1]
    return DiscreteMeasure.from_atoms(
        (Point.of(*p), w) for p, w in zip(pts, weights)
    )


class TestPushforward:
    def test_two_atom_cancellation(self):
        mu = DiscreteMeasure.from_atoms([(Point.of(0, 0), 1), (Point.of(1, -1), -1)])
        assert pushforward(mu, Direction.of(1, 1)).is_zero

    def test_zero_measure(self):
        assert pushforward(DiscreteMeasure.from_atoms([]), Direction.of(1, 1)).is_zero

    def test_five_atom_coordinate_projection(self):
        mu = five_atom_measure()
        for a in (E1, E2, E3):
            assert pushforward(mu, a).is_zero

    def test_grouping(self):
        mu = DiscreteMeasure.from_atoms(
            [(Point.of(0, 0), 2), (Point.of(1, -1), 3), (Point.of(0, 5), -1)]
        )
        proj = pushforward(mu, Direction.of(1, 1))
        assert proj.levels == (Fraction(0), Fraction(5))
        assert proj.weights == (Fraction(5), Fraction(-1))

    def test_dimension_mismatch(self):
        mu = DiscreteMeasure.from_atoms([(Point.of(1, 2), 1)])
        with pytest.raises(ValueError):
            pushforward(mu, Direction.of(1, 0, 0))


class TestTotalVariation:
    def test_five_atom(self):
        assert total_variation(five_atom_measure()) == 6

    def test_zero(self):
        assert total_variation(DiscreteMeasure.from_atoms([])) == 0

    def test_alternating_normalized(self):
        # normalized alternating measures always have mass exactly one
        pts = [Point.of(j, -j) for j in range(6)]
        for n in range(1, 7):
            mu = DiscreteMeasure.from_atoms(
                (pts[j], Fraction((-1) ** j, n)) for j in range(n)
            )
            assert total_variation(mu) == 1


class TestIntegrate:
    def test_point_mass_constant(self):
        assert integrate(DiscreteMeasure.from_atoms([(Point.of(3, 4), 1)]), lambda p: 1) == 1

    def test_five_atom_squared_ridge(self):
        mu = five_atom_measure()
        for a in (E1, E2, E3):
            value = integrate(mu, lambda p, a=a: a.dot(p) ** 2)
            assert value == 0

    def test_coordinate_function(self):
        mu = DiscreteMeasure.from_atoms([(Point.of(0, 0), 1), (Point.of(1, -1), -1)])
        assert integrate(mu, lambda p: p[0]) == -1

    def test_float_leaks(self):
        mu = DiscreteMeasure.from_atoms([(Point.of(2), 1)])
        assert integrate(mu, lambda p: 0.5) == pytest.approx(0.5)


class TestIsAnnihilating:
    def test_five_atom(self):
        assert is_annihilating(five_atom_measure(), [E1, E2, E3])

    def test_single_atom_never(self):
        mu = DiscreteMeasure.from_atoms([(Point.of(1, 2), 1)])
        assert not is_annihilating(mu, [Direction.of(1, 0), Direction.of(0, 1)])

    def test_closed_bolt_alternating(self):
        pts = [Point.of(0, 0), Point.of(0, 1), Point.of(1, 1), Point.of(1, 0)]
        mu = DiscreteMeasure.from_atoms(
            (p, (-1) ** j) for j, p in enumerate(pts)
        )
        assert is_annihilating(mu, [Direction.of(1, 0), Direction.of(0, 1)])

    def test_requires_directions(self):
        with pytest.raises(ValueError):
            is_annihilating(DiscreteMeasure.from_atoms([]), [])


def _measures(dim: int):
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    atom = st.tuples(
        st.tuples(*([coord] * dim)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    return st.lists(atom, min_size=0, max_size=7).map(
        lambda atoms: DiscreteMeasure.from_atoms(
            (Point.from_seq(c), w) for c, w in atoms
        )
    )


def _directions(dim: int):
    coord = st.integers(min_value=-3, max_value=3)
    return (
        st.tuples(*([coord] * dim))
        .filter(lambda v: any(v))
        .map(Direction.from_seq)
    )


# integers, small fractions, and fractions over huge or power-of-two denominators
_dot_coords = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**20), max_value=10**20),
        st.sampled_from([1, 2, 2**61, 2**61 - 1, 2**70, 10**25, 3**40]),
    ),
)


class TestPointCoordinates:
    def test_ints_and_fractions_are_kept(self):
        p = Point((3, Fraction(-1, 2), 0))
        assert p.coords == (3, Fraction(-1, 2), 0) and p == Point.of(3, "-1/2", 0)

    @pytest.mark.parametrize(
        "coords, index, kind",
        [((0.5, 1), 0, "float"), ((1, True), 1, "bool"), ((Fraction(1), 2, "3"), 2, "str"), ((1, 2.0), 1, "float")],
    )
    def test_other_coordinates_are_refused_by_index(self, coords, index, kind):
        with pytest.raises(TypeError, match=f"point coordinate {index} is a {kind}, not an int or a Fraction"):
            Point(coords)


class TestDot:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.tuples(
            st.lists(_dot_coords, min_size=d, max_size=d).filter(any),
            st.lists(_dot_coords, min_size=d, max_size=d),
        )
    ))
    def test_matches_textbook_sum(self, pair):
        """``Direction.dot`` equals the plain ``Fraction`` sum, also for
        ``int``-typed coordinates, and always returns a ``Fraction``."""
        a, x = pair
        got = Direction(tuple(a)).dot(Point(tuple(x)))
        assert got == sum((Fraction(c) * v for c, v in zip(a, x)), Fraction(0))
        assert type(got) is Fraction



class TestIntegerKeys:
    @pytest.mark.parametrize("seed", range(8))
    def test_equal_and_ordered_as_the_textbook_dot(self, seed):
        """Over mixed denominators, with the coordinates ``2^-k`` and
        ``2^-(k+61)``, whose hashes collide, and with points built from
        ``int`` coordinates, d = 1..4, each key is ``D E`` times the textbook
        dot, so keys are equal and ordered exactly as levels are.  Besides
        random directions, each seed has directions whose integer multiples
        hold the entries 0, ±1, ±2 and large ones, and every key list is a
        new list that no column shares."""
        rng = random.Random(seed)
        dim = seed % 4 + 1
        k = rng.randint(1, 40)
        twins = [Fraction(1, 2**k), Fraction(1, 2 ** (k + 61))]

        def coord():
            if rng.random() < 0.3:
                return rng.choice(twins) * rng.choice([1, -1, 3])
            return Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 7, 12]))

        coords = {(t,) + (Fraction(0),) * (dim - 1) for t in twins}
        while len(coords) < 40:
            coords.add(tuple(coord() for _ in range(dim)))
        ints = {tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(12)} - coords
        points = [Point(x) for x in coords] + [Point(x) for x in ints]
        rng.shuffle(points)
        big_d, columns = integer_columns(points)
        assert len(columns) == dim and all(len(col) == len(points) for col in columns)
        assert all(type(v) is int for col in columns for v in col)
        dirs = [Direction((coord() or Fraction(1),) + tuple(coord() for _ in range(dim - 1)))
                for _ in range(6)]
        entries = (0, 1, -1, 2, -2, 2**70 + 1, -(3**41))
        for first in entries[1:]:
            multiple = (first,) + tuple(rng.choice(entries) for _ in range(dim - 1))
            e = rng.choice([1, 7**30])
            dirs.append(Direction(tuple(Fraction(w, e) for w in multiple)))
            assert dirs[-1].integer_multiple == (e, multiple)
        for a in dirs:
            big_e, multiple = a.integer_multiple
            assert all(type(w) is int for w in multiple) and big_e > 0
            lists = [list(col) for col in columns]
            keys = a.integer_keys(lists)
            dots = [textbook_dot(a, p) for p in points]
            assert type(keys) is list and all(type(key) is int for key in keys)
            assert keys == [dot * big_d * big_e for dot in dots]
            for ki, di in zip(keys, dots):
                assert [(ki < kj, ki == kj) for kj in keys] == [(di < dj, di == dj) for dj in dots]
            keys[0] += 1
            keys.append(0)
            assert lists == [list(col) for col in columns]

    def test_int_coordinates_need_no_denominator(self):
        """Points built directly from ``int`` coordinates are their own
        integer form; mixed with ``Fraction`` ones they share one ``D``."""
        ints = [Point((3, -2)), Point((0, 5)), Point((-7, 1))]
        assert integer_columns(ints) == (1, ((3, 0, -7), (-2, 5, 1)))
        mixed = ints + [Point((Fraction(1, 4), Fraction(-5, 6)))]
        assert integer_columns(mixed) == (12, ((36, 0, -84, 3), (-24, 60, 12, -10)))
        a = Direction((1, -1))
        assert a.integer_keys(integer_columns(mixed)[1]) == [60, -60, -96, 13]


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(mu=_measures(2), a=_directions(2), data=st.data())
    def test_change_of_variables(self, mu, a, data):
        """Integrating g(a.x) against mu equals integrating g against the image."""
        proj = pushforward(mu, a)
        table = {
            lv: data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
            for lv in proj.levels
        }
        for p in mu.support:
            table.setdefault(a.dot(p), Fraction(0))
        lhs = integrate(mu, lambda p: table[a.dot(p)])
        rhs = sum((w * table[lv] for lv, w in proj.atoms()), Fraction(0))
        assert lhs == rhs

    @settings(max_examples=200, deadline=None)
    @given(mu=_measures(3), a=_directions(3))
    def test_norm_contraction(self, mu, a):
        assert total_variation(pushforward(mu, a)) <= total_variation(mu)

    @settings(max_examples=100, deadline=None)
    @given(mu=_measures(2), a=_directions(2))
    def test_projection_canonical_idempotent(self, mu, a):
        """Re-projecting through the 1-d identity changes nothing."""
        proj = pushforward(mu, a)
        lifted = DiscreteMeasure.from_atoms(
            (Point((lv,)), w) for lv, w in proj.atoms()
        )
        again = pushforward(lifted, Direction.of(1))
        assert again == ProjectedMeasure(proj.levels, proj.weights)

    @settings(max_examples=120, deadline=None)
    @given(mu=_measures(2), dirs=st.lists(_directions(2), min_size=1, max_size=3))
    def test_annihilating_iff_moments_vanish(self, mu, dirs):
        """Vanishing projections are equivalent to vanishing low-degree ridge
        moments (Vandermonde nondegeneracy makes the cutoff #levels - 1)."""
        expected = is_annihilating(mu, dirs)
        moments_vanish = True
        for a in dirs:
            levels = sorted({a.dot(p) for p in mu.support})
            for degree in range(len(levels)):
                val = integrate(mu, lambda p, a=a, d=degree: a.dot(p) ** d)
                if val != 0:
                    moments_vanish = False
        if not mu.support:
            assert expected and moments_vanish
        else:
            assert expected == moments_vanish

"""Measure layer: pushforwards, total variation, integration, annihilation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert pushforward(DiscreteMeasure.zero(), Direction.of(1, 1)).is_zero

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
        mu = DiscreteMeasure.point_mass(Point.of(1, 2))
        with pytest.raises(ValueError):
            pushforward(mu, Direction.of(1, 0, 0))


class TestTotalVariation:
    def test_five_atom(self):
        assert total_variation(five_atom_measure()) == 6

    def test_zero(self):
        assert total_variation(DiscreteMeasure.zero()) == 0

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
        assert integrate(DiscreteMeasure.point_mass(Point.of(3, 4)), lambda p: 1) == 1

    def test_five_atom_squared_ridge(self):
        mu = five_atom_measure()
        for a in (E1, E2, E3):
            value = integrate(mu, lambda p, a=a: a.dot(p) ** 2)
            assert value == 0

    def test_coordinate_function(self):
        mu = DiscreteMeasure.from_atoms([(Point.of(0, 0), 1), (Point.of(1, -1), -1)])
        assert integrate(mu, lambda p: p[0]) == -1

    def test_float_leaks(self):
        mu = DiscreteMeasure.point_mass(Point.of(2))
        assert integrate(mu, lambda p: 0.5) == pytest.approx(0.5)


class TestIsAnnihilating:
    def test_five_atom(self):
        assert is_annihilating(five_atom_measure(), [E1, E2, E3])

    def test_single_atom_never(self):
        mu = DiscreteMeasure.point_mass(Point.of(1, 2))
        assert not is_annihilating(mu, [Direction.of(1, 0), Direction.of(0, 1)])

    def test_closed_bolt_alternating(self):
        pts = [Point.of(0, 0), Point.of(0, 1), Point.of(1, 1), Point.of(1, 0)]
        mu = DiscreteMeasure.from_atoms(
            (p, (-1) ** j) for j, p in enumerate(pts)
        )
        assert is_annihilating(mu, [Direction.of(1, 0), Direction.of(0, 1)])

    def test_requires_directions(self):
        with pytest.raises(ValueError):
            is_annihilating(DiscreteMeasure.zero(), [])


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

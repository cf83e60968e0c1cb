"""The constructed activation: exact segments, smooth gaps, encoders, builders."""

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    random_rational,
    random_sparse_poly,
    textbook_dot,
    textbook_eval_network,
    textbook_poly_value,
    textbook_sigma,
)
from ridgekit import (
    ActivationSpec,
    DensityPreconditionError,
    EncoderBudgetError,
    Network,
    NetworkTerm,
    Direction,
    Point,
    RationalPoly,
    build_k_network,
    decode_poly,
    encode_poly,
    encode_univariate,
    eval_network,
    sigma_eval,
    smooth_step,
)
from ridgekit import activation
from ridgekit.cli import main
from ridgekit.incidence import interpolate_ridge
from ridgekit.presets import config_preset, target_values

SPEC = ActivationSpec.create(1, 1, 1)
PRESETS = ["paper-5pt", "grid-2x2", "grid-3x3", "parallel-segments", "monotone-curve", "paper-orbit"]


class TestSigmaEval:
    def test_segment_endpoints(self):
        for m in list(range(1, 25)) + [40, 77, 100]:
            p = decode_poly(m)
            left = sigma_eval(SPEC, Fraction(2 * m - 1))
            right = sigma_eval(SPEC, Fraction(2 * m))
            assert left == p.eval_exact(-1) and isinstance(left, Fraction)
            assert right == p.eval_exact(1) and isinstance(right, Fraction)

    def test_below_left_cutoff(self):
        assert sigma_eval(SPEC, Fraction(-1)) == 0.0  # alpha - 2
        assert sigma_eval(SPEC, Fraction(-100)) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_left_tail_is_positive_zero(self, seed):
        """Below the first segment (t < alpha) the value is the float +0.0,
        including the unit just below alpha, where the first (zero)
        polynomial's extension would be windowed."""
        rng = random.Random(f"left-tail-{seed}")
        spec = ActivationSpec(
            Fraction(rng.randint(1, 9), rng.randint(1, 6)),
            Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            Fraction(rng.randint(1, 5), rng.randint(1, 3)),
        )
        ts = [spec.alpha - Fraction(1, 10**12), spec.alpha - 1, Fraction(-(10**30))]
        ts += [spec.alpha - Fraction(rng.randint(1, 10**6), rng.randint(1, 10**5)) for _ in range(200)]
        for t in ts:
            value = sigma_eval(spec, t)
            assert type(value) is float and value == 0.0 and math.copysign(1.0, value) == 1.0, t

    def test_segment_identity_random(self):
        rng = random.Random(17)
        for _ in range(300):
            m = rng.randint(1, 1000)
            t = Fraction(rng.randint(-32, 32), 32)
            arg = SPEC.scale * t + 2 * m * SPEC.alpha - SPEC.alpha / 2
            value = sigma_eval(SPEC, arg)
            assert isinstance(value, Fraction)
            assert value == decode_poly(m).eval_exact(t)

    def test_mid_gap_blend_formula(self):
        # independent re-derivation of the gap value at s = 1/2
        for m in (1, 2, 5, 9):
            t = Fraction(2 * m) + Fraction(1, 2)  # midpoint of gap m -> m+1

            def extended(idx, tq):
                tau = 2 * tq - 4 * idx + 1  # alpha = l = 1
                return float(decode_poly(idx).eval_exact(tau))

            lo, hi = extended(m, t), extended(m + 1, t)
            w = 0.5  # the step is symmetric: w(1/2) = 1/2
            expected = (1 - w) * lo + w * hi
            got = sigma_eval(SPEC, t)
            assert isinstance(got, float)
            assert got == pytest.approx(expected, abs=1e-12)
            assert min(lo, hi) - 1e-12 <= got <= max(lo, hi) + 1e-12

    def test_nonunit_parameters(self):
        spec = ActivationSpec.create(Fraction(3, 2), Fraction(5, 4), 2)
        for m in (1, 2, 3, 11):
            p = decode_poly(m)
            t = Fraction(-7, 8)
            arg = spec.scale * t + 2 * m * spec.alpha - spec.alpha / 2
            assert sigma_eval(spec, arg) == p.eval_exact(t)


class TestSmoothStep:
    def test_endpoints_and_midpoint(self):
        assert smooth_step(-0.5, 1.0) == 0.0
        assert smooth_step(0.0, 1.0) == 0.0
        assert smooth_step(1.0, 1.0) == 1.0
        assert smooth_step(1.5, 1.0) == 1.0
        assert smooth_step(0.5, 1.0) == pytest.approx(0.5)

    def test_monotone(self):
        xs = [j / 100 for j in range(101)]
        ys = [smooth_step(x, 1.0) for x in xs]
        assert all(a <= b + 1e-15 for a, b in zip(ys, ys[1:]))

    def test_flat_tails(self):
        # all the mass of the transition is well inside (0, 1)
        assert smooth_step(1e-3, 1.0) == 0.0  # underflows to exactly zero
        assert smooth_step(1 - 1e-3, 1.0) == 1.0


class TestJunctionSmoothness:
    def test_derivative_estimates_converge(self):
        """Central differences of orders 1-3 settle across every junction at
        the h^2 rate a three-times-differentiable function must show."""

        def f(x: Fraction) -> float:
            return float(sigma_eval(SPEC, x))

        def d1(x, h):
            return (f(x + h) - f(x - h)) / (2 * float(h))

        def d2(x, h):
            return (f(x + h) - 2 * f(x) + f(x - h)) / float(h) ** 2

        def d3(x, h):
            return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (
                2 * float(h) ** 3
            )

        hs = [Fraction(1, 32), Fraction(1, 64), Fraction(1, 128)]
        for m in range(1, 21):
            x0 = Fraction(m)
            for order, diff in ((1, d1), (2, d2), (3, d3)):
                ests = [diff(x0, h) for h in hs]
                first = abs(ests[1] - ests[0])
                second = abs(ests[2] - ests[1])
                floor = 1e-6 * max(1.0, abs(ests[2]))
                if first <= floor and second <= floor:
                    continue  # locally polynomial on both sides
                # ideal ratio 1/4; allow a factor-4 band
                assert second <= max(first, floor), (m, order, first, second)


class TestEncodeUnivariate:
    def test_fixed_point_small_polynomial(self):
        p = RationalPoly.from_coefficients([Fraction(1, 3), Fraction(-1, 2), Fraction(1, 4)])
        enc = encode_univariate(p, 1e-3, SPEC)
        assert enc.poly == p
        assert enc.achieved_error == 0
        assert enc.index == encode_poly(p)
        assert enc.scale == Fraction(1, 2)
        assert enc.shift == SPEC.alpha / 2 - 2 * enc.index * SPEC.alpha

    def test_identity_profile(self):
        enc = encode_univariate(lambda t: t, 0.05, SPEC)
        assert enc.achieved_error <= 0.05
        assert decode_poly(enc.index) == enc.poly

    def test_sine_profile(self):
        enc = encode_univariate(math.sin, 1e-2, SPEC)
        assert enc.achieved_error <= 1e-2
        # spot-check the promised identity sigma(scale*t - shift) = poly(t)
        for t in (Fraction(-1), Fraction(0), Fraction(2, 3)):
            arg = enc.scale * t - enc.shift
            assert sigma_eval(SPEC, arg) == enc.poly.eval_exact(t)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(activation, "_MAX_DEGREE", 3)
        with pytest.raises(EncoderBudgetError) as exc:
            encode_univariate(abs, 1e-9, SPEC)
        assert 0 < exc.value.best_error < 1.0

    @pytest.mark.parametrize(
        "g",
        [
            lambda x: 1 / 1500001 + x,
            RationalPoly.from_coefficients([Fraction(1, 1_500_000), 1]),
        ],
        ids=["near-match", "exact-match"],
    )
    def test_index_beyond_the_cap_is_skipped_and_named(self, g):
        """Both accept paths check the exact index against the enumeration's cap."""
        with pytest.raises(EncoderBudgetError, match="4,000,000-bit cap"):
            encode_univariate(g, 1e-12, SPEC)

    @pytest.mark.parametrize("g", [lambda t: 2e6, lambda t: 1e308 * math.cos(50 * t)], ids=["large", "overflow"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_fit_beyond_the_coefficient_cap_is_named(self, g):
        """Every degree is skipped, the overflowing profile's by its NaN coefficients."""
        with pytest.raises(EncoderBudgetError, match="1,000,000 coefficient cap"):
            encode_univariate(g, 1e-3, SPEC)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            encode_univariate(lambda t: t, 0.0, SPEC)

    @pytest.mark.parametrize("eps", [-1e-3, math.nan])
    def test_negative_or_nan_budget(self, eps):
        with pytest.raises(ValueError, match="budget must be positive"):
            encode_univariate(lambda t: t, eps, SPEC)


def ladder_inputs() -> list[float]:
    """Signed zeros, integers, dyadics (denominators within and beyond the
    bounds, with exact ties among them), subnormals, +-1e6 and seeded floats."""
    rng = random.Random(22)
    special = [0.0, -0.0, 1.0, -3.0, 1e6, -1e6, 0.125, -3 / 16, 2.0**-24, 5 * 2.0**-30]
    special += [5e-324, -5e-324, 2.2250738585072014e-308, 1 / 3, -2 / 7, 0.1, 999999.999]
    dyadic = [n / 2**m for m in range(2, 12) for n in range(-40, 41)]
    dyadic += [rng.randint(-(2**30), 2**30) / 2 ** rng.randint(4, 40) for _ in range(2000)]
    seeded = [rng.uniform(-10, 10) for _ in range(2000)] + [rng.gauss(0, 1e-3) for _ in range(500)]
    seeded += [rng.uniform(-1e6, 1e6) for _ in range(500)]
    return special + dyadic + seeded


class TestRoundingLadder:
    """``_best_approximations`` against ``Fraction.limit_denominator``."""

    def test_every_bound_is_limit_denominator(self):
        for c in ladder_inputs():
            want = [Fraction(c).limit_denominator(b) for b in activation._DENOMINATOR_BOUNDS]
            assert activation._best_approximations(c) == [(q.numerator, q.denominator) for q in want], c

    @pytest.mark.parametrize(
        "c, convergent, semiconvergent",
        [(1 / 16, Fraction(0), Fraction(1, 8)), (-17 / 16, Fraction(-1), Fraction(-9, 8))],
    )
    def test_a_tie_takes_the_convergent(self, c, convergent, semiconvergent):
        assert abs(Fraction(c) - convergent) == abs(Fraction(c) - semiconvergent)
        assert activation._best_approximations(c)[0] == (convergent.numerator, convergent.denominator)


class TestProfileSamples:
    """kfit samples each level profile with one ``np.interp`` call per array."""

    @pytest.mark.parametrize("target", ["xy", "x2-y", "norm"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_array_interp_is_the_scalar_interp(self, preset, target):
        cfg = config_preset(preset)
        ridge, _ = interpolate_ridge(cfg, target_values(target, cfg))
        bound = max(abs(lv) for table in ridge.tables for lv in table.levels)
        spec = ActivationSpec(Fraction(1), max(bound, Fraction(1)), Fraction(1))
        _, t_nodes, grid = activation._sample_points(spec)
        for table in ridge.tables:
            levels = np.array([float(v) for v in table.levels])
            values = np.array([float(v) for v in table.values])
            for ts in (t_nodes, grid):
                scalar = np.array([float(np.interp(t, levels, values)) for t in ts])
                assert np.interp(ts, levels, values).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize(
        "preset, target, eps",
        [("parallel-segments", "xy", Fraction(1, 100)), ("monotone-curve", "norm", Fraction(1, 10))],
    )
    def test_build_k_network_encodes_like_a_scalar_profile(self, preset, target, eps):
        """Each unit is the encoding of its profile given as a scalar callable."""
        cfg = config_preset(preset)
        values = target_values(target, cfg)
        net = build_k_network(cfg, values, eps)
        ridge, _ = interpolate_ridge(cfg, values)
        budget = float(eps) / (cfg.k + 1)
        for i, (a, table, term) in enumerate(zip(cfg.dirs, ridge.tables, net.terms)):
            levels = [float(v) for v in table.levels]
            profile = [float(v) for v in table.values]
            enc = encode_univariate(lambda t: float(np.interp(t, levels, profile)), budget, net.activation)
            assert term.w == a.scale(enc.scale) and term.theta == enc.shift
            assert net.report["encoder_errors"][i] == enc.achieved_error


class TestEvalNetwork:
    def test_single_term_exact_identity(self):
        m = 7
        spec = SPEC
        theta = spec.alpha / 2 - 2 * m * spec.alpha
        net = Network(
            (NetworkTerm(Fraction(1), Direction.of(Fraction(1, 2)), theta),),
            spec,
        )
        p = decode_poly(m)
        for t in (Fraction(-1), Fraction(-1, 3), Fraction(1)):
            value = eval_network(net, Point((t,)))
            assert isinstance(value, Fraction)
            assert value == p.eval_exact(t)

    def test_empty_network(self):
        net = Network((), SPEC)
        assert eval_network(net, Point.of(1, 2)) == 0

    def test_dimension_mismatch(self):
        net = Network(
            (NetworkTerm(Fraction(1), Direction.of(1, 0), Fraction(0)),), SPEC
        )
        with pytest.raises(ValueError):
            eval_network(net, Point.of(1))

    def test_serialization_round_trip(self):
        cfg = config_preset("parallel-segments")
        net = build_k_network(cfg, target_values("xy", cfg), Fraction(1, 100))
        data = net.to_dict()
        back = Network.from_dict(data)
        assert back.terms == net.terms
        assert back.activation == net.activation
        p = cfg.points[3]
        assert eval_network(back, p) == eval_network(net, p)

    def test_argument_in_a_gap_gives_the_float_blend(self):
        """One term's argument on a carrier segment stays exact, the other's
        in a gap is a float blend, and the network value is their float sum."""
        cfg = config_preset("parallel-segments")
        net = build_k_network(cfg, target_values("xy", cfg), Fraction(1, 100))
        assert net.activation.half_width == 1
        p = Point.of(Fraction(7, 8), Fraction(-3, 8))  # levels 1/2 along (1,1), 5/4 along (1,-1)
        on_segment, in_gap = (sigma_eval(net.activation, t.w.dot(p) - t.theta) for t in net.terms)
        assert isinstance(on_segment, Fraction) and isinstance(in_gap, float)
        value = eval_network(net, p)
        assert isinstance(value, float)
        assert value == float(on_segment) + in_gap


class TestBuildKNetwork:
    def test_zero_target(self):
        cfg = config_preset("parallel-segments")
        net = build_k_network(cfg, [0] * cfg.n, Fraction(1, 100))
        assert len(net.terms) == cfg.k
        for p in cfg.points:
            assert abs(eval_network(net, p)) < Fraction(1, 100)

    def test_structure_and_replay(self):
        cfg = config_preset("parallel-segments")
        values = target_values("xy", cfg)
        net = build_k_network(cfg, values, Fraction(1, 100))
        assert len(net.terms) == 2
        assert all(t.c == 1 for t in net.terms)
        worst = max(
            abs(v - eval_network(net, p)) for p, v in zip(cfg.points, values)
        )
        assert float(worst) == net.report["replayed_error"]
        assert worst < Fraction(1, 100)

    def test_error_budget_composition(self):
        cfg = config_preset("monotone-curve")
        values = target_values("norm", cfg)
        net = build_k_network(cfg, values, Fraction(1, 10))
        rep = net.report
        assert rep["replayed_error"] <= rep["ridge_residual"] + sum(
            rep["per_direction_errors"]
        ) + 1e-15

    def test_closed_path_refused(self):
        cfg = config_preset("paper-5pt")
        with pytest.raises(DensityPreconditionError) as exc:
            build_k_network(cfg, [0, 0, 0, 0, 1], Fraction(1, 10))
        assert exc.value.certificate.verify(cfg.dirs)

    @pytest.mark.parametrize(
        "alphas, message",
        [(2, "error budget accounting violated"), (1, "configuration points must hit carrier segments")],
        ids=["next-segment", "gap"],
    )
    def test_replay_catches_a_misplaced_threshold(self, monkeypatch, alphas, message):
        """The first unit's threshold, lowered by two alphas, selects the next
        carrier segment's polynomial, and by one alpha puts its arguments on
        a gap; its recorded encoding and error stay those of its own index."""
        real = activation._encode
        seen = []

        def misplaced(sample, exact, budget, spec):
            enc = real(sample, exact, budget, spec)
            seen.append(enc)
            return replace(enc, shift=enc.shift - alphas * spec.alpha) if len(seen) == 1 else enc

        monkeypatch.setattr(activation, "_encode", misplaced)
        cfg = config_preset("monotone-curve")
        with pytest.raises(AssertionError, match=message):
            build_k_network(cfg, target_values("norm", cfg), Fraction(1, 10))


class TestTextbookOracle:
    """``eval_exact`` and ``sigma_eval`` against the textbook forms in helpers:
    the same rational on a segment, the same float on a gap or the tail."""

    def test_eval_exact_matches_the_fraction_horner(self):
        rng = random.Random(2020)
        cases = [
            (RationalPoly.zero(), Fraction(-3, 4)),
            (RationalPoly.from_coefficients([Fraction(-7, 5)]), Fraction(0)),
            (RationalPoly.from_coefficients([0, 0, Fraction(1, 3), 0, 0, 0, Fraction(-2, 7)]), Fraction(-5, 2)),
            (RationalPoly.from_coefficients([Fraction(1, 2), 0, 0, 3]), Fraction(0)),
        ]
        cases += [(random_sparse_poly(rng), random_rational(rng)) for _ in range(500)]
        for p, t in cases:
            want = textbook_poly_value(p, t)
            assert p.eval_exact(t) == want, (p, t)
            num, den = p.eval_ratio(6 * t.numerator, 6 * t.denominator)  # an unreduced argument
            assert den > 0 and Fraction(num, den) == want

    def test_degree_cap_is_checked_before_any_power(self):
        p = RationalPoly(((10**12, Fraction(1)),))
        with pytest.raises(ValueError, match="degree too large"):
            p.eval_exact(Fraction(3, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_sigma_eval_matches_the_textbook_activation(self, seed):
        rng = random.Random(seed)
        spec = ActivationSpec(
            Fraction(rng.randint(1, 9), rng.randint(1, 6)),
            Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            Fraction(rng.randint(1, 5), rng.randint(1, 3)),
        )
        kinds = Counter()
        for _ in range(300):
            t = spec.alpha * Fraction(rng.randint(-60, 900), rng.randint(1, 24))
            got, want = sigma_eval(spec, t), textbook_sigma(spec, t)
            assert type(got) is type(want) and got == want, (spec, t)
            kinds[type(got)] += 1
        assert kinds[Fraction] and kinds[float]

    def test_network_values_match_the_textbook_evaluator(self):
        """Seeded networks whose arguments land on carrier segments, on gaps
        and on the left tail, at points over several denominators:
        ``eval_network`` and the replay's list evaluation give the textbook
        value and type."""
        places, kinds = Counter(), Counter()
        for seed in range(8):
            rng = random.Random(seed)
            spec = ActivationSpec(
                Fraction(rng.randint(1, 9), rng.randint(1, 6)),
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                Fraction(rng.randint(1, 5), rng.randint(1, 3)),
            )
            dim = rng.randint(1, 3)
            coords = set()
            while len(coords) < 30:
                coords.add(tuple(Fraction(rng.randint(-9, 9), 9 * rng.choice([1, 2, 5, 7])) for _ in range(dim)))
            points = [Point(x) for x in sorted(coords)]
            terms = []
            for _ in range(rng.randint(3, 6)):
                # |w . x| <= alpha / 2, so with no offset the argument stays on
                # segment m; an offset of up to one alpha reaches the gaps, and
                # below segment 1 the left tail
                w = [spec.alpha * Fraction(rng.randint(-4, 4), 8 * dim) for _ in range(dim)]
                w[rng.randrange(dim)] = spec.alpha / (2 * dim * rng.choice([1, 3, 4]))
                m = rng.choice([1, rng.randint(1, 40)])
                offset = rng.choice([0, 0, spec.alpha * Fraction(rng.randint(-8, 8), 8)])
                c = random_rational(rng, 99, 13) or Fraction(1)
                terms.append(NetworkTerm(c, Direction(tuple(w)), spec.shift_for_index(m) + offset))
            net = Network(tuple(terms), spec)
            want = [textbook_eval_network(net, x) for x in points]
            for got in (activation._network_values(net, points), [eval_network(net, x) for x in points]):
                assert [type(v) for v in got] == [type(v) for v in want] and got == want, seed
            kinds.update(type(v) for v in want)
            for x in points:
                for term in terms:
                    q = (textbook_dot(term.w, x) - term.theta) / spec.alpha
                    places["tail" if q < 1 else "segment" if q >= 2 * math.ceil(q / 2) - 1 else "gap"] += 1
        assert kinds[Fraction] and kinds[float], kinds
        assert places["segment"] and places["gap"] and places["tail"], places


@pytest.fixture
def decode_counts(monkeypatch):
    """How often ``activation`` decodes each index, from an empty memo."""
    counts: Counter = Counter()
    real = activation.decode_poly

    def counting(m):
        counts[m] += 1
        return real(m)

    activation._decoded.cache_clear()
    monkeypatch.setattr(activation, "decode_poly", counting)
    yield counts
    activation._decoded.cache_clear()


def _term_index(spec: ActivationSpec, term: NetworkTerm) -> int:
    """The index whose segment the term's threshold selects: theta = alpha/2 - 2 m alpha."""
    m = (spec.alpha / 2 - term.theta) / (2 * spec.alpha)
    assert m.denominator == 1
    return int(m)


class TestDecodeOnce:
    def test_sigma_eval_rows_decode_each_segment_once(self, tmp_path, decode_counts):
        assert main(["sigma-eval", "--to", "20", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "sigma.csv").read_text().splitlines()) == 2002
        assert decode_counts == {m: 1 for m in range(1, 11)}

    @pytest.mark.parametrize(
        "preset, target, eps",
        [("parallel-segments", "xy", Fraction(1, 100)), ("monotone-curve", "norm", Fraction(1, 10))],
        ids=["parallel-segments", "monotone-curve"],
    )
    def test_network_replay_decodes_each_term_once(self, decode_counts, preset, target, eps):
        cfg = config_preset(preset)
        net = build_k_network(cfg, target_values(target, cfg), eps)
        activation._decoded.cache_clear()
        decode_counts.clear()
        for p in cfg.points:
            assert isinstance(eval_network(net, p), Fraction)
        assert decode_counts == {_term_index(net.activation, t): 1 for t in net.terms}

    def test_million_bit_index_decodes_once(self, decode_counts):
        p = RationalPoly.from_coefficients([Fraction(1, 250_000), 1])
        m = encode_poly(p)
        assert m.bit_length() > 10**6 - 10
        net = Network((NetworkTerm(Fraction(1), Direction.of(SPEC.scale), SPEC.shift_for_index(m)),), SPEC)
        for j in range(20):
            t = Fraction(j - 10, 10)
            assert eval_network(net, Point((t,))) == textbook_poly_value(p, t)
        assert decode_counts == {m: 1}

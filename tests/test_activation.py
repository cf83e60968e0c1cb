"""The constructed activation: exact segments, smooth gaps, encoders, builders."""

import math
import random
from fractions import Fraction

import pytest

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
from ridgekit.presets import config_preset, target_values

SPEC = ActivationSpec.create(1, 1, 1)


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

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            encode_univariate(lambda t: t, 0.0, SPEC)

    @pytest.mark.parametrize("eps", [-1e-3, math.nan])
    def test_negative_or_nan_budget(self, eps):
        with pytest.raises(ValueError, match="budget must be positive"):
            encode_univariate(lambda t: t, eps, SPEC)


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

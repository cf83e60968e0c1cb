"""Generic-activation fits: dictionary matching, assembly, hypothesis guards."""

import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    interior_grid,
    random_rational,
    textbook_approx_univariate,
    textbook_atoms,
    textbook_dictionary,
    textbook_eval_network,
    textbook_replayed_error,
)
from ridgekit import (
    DensityPreconditionError,
    Direction,
    FitBudgetError,
    Network,
    NetworkTerm,
    Point,
    PointConfig,
    PolynomialActivationError,
    SigmaOracle,
    ThetaInterval,
    UnivariateFit,
    approx_network,
    approx_univariate,
    eval_network,
    interpolate_ridge,
    logistic_oracle,
    polynomial_degree_probe,
    sigma_by_name,
    table_oracle,
    tanh_ramp_oracle,
)
from ridgekit import activation, netapprox
from ridgekit.presets import config_preset, target_values

THETA = ThetaInterval.create(-5, 5)
LOGISTIC = logistic_oracle()
TANH_RAMP = tanh_ramp_oracle()
# A sampled logistic, as a table activation.
TABLE = table_oracle([(x / 10, 1 / (1 + math.exp(-x / 10))) for x in range(-120, 121)])
ARRAY_ORACLES = [LOGISTIC, TANH_RAMP, TABLE]
# Values one fit may read from every block; it must never write into them.
SHARED_VALUES = np.linspace(0.125, 0.875, 21)[:, None]


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak traced allocation, in bytes, while ``fn`` runs (or raises)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
    except FitBudgetError:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak


class TestThetaInterval:
    def test_strict_containment(self):
        assert THETA.contains(0)
        assert not THETA.contains(-5)
        assert not THETA.contains(5)

    def test_interior_grid(self):
        grid = interior_grid(THETA, 257)
        assert len(grid) == 257
        assert all(THETA.contains(x) for x in grid)
        assert Fraction(0) in grid

    @pytest.mark.parametrize("count", [257, 515, 1031])
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-5, 5),
            (Fraction(-7, 3), Fraction(5, 11)),
            (Fraction(1, 3), Fraction(17, 7)),
            (Fraction(-9, 7), Fraction(-1, 6)),
        ],
        ids=["-5,5", "-7/3,5/11", "1/3,17/7", "-9/7,-1/6"],
    )
    def test_integer_grid_is_the_fraction_grid(self, lo, hi, count):
        """Each numerator over the common denominator is the textbook grid
        point, and ``int / int`` is its correctly rounded float."""
        theta = ThetaInterval.create(lo, hi)
        nums, den = theta._interior_grid(count)
        grid = interior_grid(theta, count)
        assert [Fraction(n, den) for n in nums] == grid
        assert [n / den for n in nums] == [float(th) for th in grid]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ThetaInterval.create(1, 1)


class TestDegreeProbe:
    def test_flags_low_degree_polynomials(self):
        for degree, f in [
            (0, lambda x: 2.0),
            (1, lambda x: 3.0 * x - 1.0),
            (3, lambda x: 0.5 * x**3 - x + 2.0),
            (5, lambda x: x**5 / 20.0 + x**2),
        ]:
            assert polynomial_degree_probe(SigmaOracle("poly", f)) == degree

    def test_passes_nonpolynomials(self):
        assert polynomial_degree_probe(LOGISTIC) is None
        assert polynomial_degree_probe(tanh_ramp_oracle()) is None
        assert polynomial_degree_probe(SigmaOracle("exp", math.exp)) is None


class TestApproxUnivariate:
    def test_zero_profile_empty(self):
        fit = approx_univariate([0, 1, 2], [0, 0, 0], LOGISTIC, THETA, 1e-6)
        assert fit.terms == () and fit.achieved_error == 0

    def test_recovers_single_atom(self):
        levels = [Fraction(j, 4) for j in range(-8, 9)]
        targets = [LOGISTIC.evaluator(float(lv)) for lv in levels]  # sigma(1*y - 0)
        fit = approx_univariate(levels, targets, LOGISTIC, THETA, 1e-9)
        assert fit.achieved_error <= 1e-9
        assert len(fit.terms) == 1
        c, t, th = fit.terms[0]
        assert (t, th) == (Fraction(1), Fraction(0))
        assert float(c) == pytest.approx(1.0, abs=1e-9)

    def test_absolute_value_profile(self):
        levels = [Fraction(j, 10) for j in range(-10, 11)]
        targets = [abs(lv) for lv in levels]
        fit = approx_univariate(levels, targets, LOGISTIC, THETA, 1e-2)
        assert fit.achieved_error <= 1e-2

    def test_selected_thetas_are_grid_points(self):
        """On an interval with non-dyadic endpoints every selected threshold
        is an entry of the textbook grid of some round."""
        theta = ThetaInterval.create(Fraction(-7, 3), Fraction(5, 11))
        levels = [Fraction(j, 10) for j in range(-10, 11)]
        targets = [abs(lv) for lv in levels]
        fit = approx_univariate(levels, targets, LOGISTIC, theta, 1e-3)
        assert len(fit.terms) > 1
        grids = set()
        count = 257
        for _ in range(netapprox._ROUNDS):
            grids.update(interior_grid(theta, count))
            count = 2 * count + 1
        assert all(type(th) is Fraction and th in grids for _, _, th in fit.terms)

    def test_budget_error_carries_best(self, monkeypatch):
        levels = [Fraction(j, 10) for j in range(-10, 11)]
        targets = [abs(lv) for lv in levels]
        monkeypatch.setattr(netapprox, "_ATOM_BUDGET", 2)
        monkeypatch.setattr(netapprox, "_ROUNDS", 1)
        with pytest.raises(FitBudgetError) as exc:
            approx_univariate(levels, targets, LOGISTIC, THETA, 1e-13)
        assert exc.value.best_error > 0

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps"):
            approx_univariate([0, 1], [0, 1], LOGISTIC, THETA, eps)

    def test_dictionary_cap_refuses_the_round_that_exceeds_it(self, monkeypatch):
        levels = [Fraction(j, 10) for j in range(-10, 11)]
        targets = [abs(lv) for lv in levels]
        first_round = len(levels) * 34 * 257  # levels x (scales x thetas)
        monkeypatch.setattr(netapprox, "MAX_DICTIONARY_ENTRIES", first_round)
        monkeypatch.setattr(netapprox, "_ATOM_BUDGET", 4)
        monkeypatch.setattr(netapprox, "_ROUNDS", 2)
        args = (levels, targets, LOGISTIC, THETA, 1e-13)
        with pytest.raises(FitBudgetError) as exc:
            approx_univariate(*args)
        assert 0 < exc.value.best_error < 1
        # Round 2 would be about four times the cap.
        assert traced_peak(approx_univariate, *args) <= 3 * first_round * 8

    def test_dictionary_cap_below_the_first_round(self, monkeypatch):
        monkeypatch.setattr(netapprox, "MAX_DICTIONARY_ENTRIES", 1)
        with pytest.raises(FitBudgetError) as exc:
            approx_univariate([0, 1], [0, 1], LOGISTIC, THETA, 1e-3)
        assert exc.value.best_error == 1.0

    def test_column_build_memory_is_bounded(self, monkeypatch):
        """The dictionary is filled in atom blocks: the peak stays close to
        the one ``columns`` array, with no whole-matrix temporaries."""
        levels = [Fraction(j, 8) for j in range(-40, 41)]
        targets = [abs(lv) for lv in levels]
        columns_bytes = len(levels) * 34 * 257 * 8
        monkeypatch.setattr(netapprox, "_ROUNDS", 1)
        peak = traced_peak(approx_univariate, levels, targets, LOGISTIC, THETA, 1e-13)
        assert peak <= 2.5 * columns_bytes

    def test_exhausted_fit_peaks_below_one_and_a_half_dictionaries(self):
        """A 300-level fit runs rounds 1 and 2 to the atom budget and is
        refused at round 3 by the dictionary cap.  Its peak stays below 1.5x
        the round-2 dictionary, so no norm temporary of the dictionary's
        size is made, and below the two rounds' dictionaries together, so
        the round-1 dictionary is gone before round 2 is allocated."""
        levels = [Fraction(j, 16) for j in range(-150, 150)]
        targets = [abs(lv) for lv in levels]
        first = len(levels) * 34 * 257 * 8
        largest = len(levels) * 66 * 515 * 8
        assert len(levels) * 130 * 1031 > netapprox.MAX_DICTIONARY_ENTRIES
        with pytest.raises(FitBudgetError):
            approx_univariate(levels, targets, LOGISTIC, THETA, 1e-13)
        peak = traced_peak(approx_univariate, levels, targets, LOGISTIC, THETA, 1e-13)
        assert peak < 1.5 * largest
        assert peak < largest + first

    @pytest.mark.parametrize(
        "oracle",
        [
            SigmaOracle("identity", float, array_evaluator=lambda x: x),
            SigmaOracle("shared", lambda x: 0.5, array_evaluator=lambda x: SHARED_VALUES),
        ],
        ids=lambda o: o.name,
    )
    def test_build_writes_only_into_arrays_it_owns(self, oracle, monkeypatch):
        """An evaluator may return its argument or an array it keeps: the
        fit copies the values out, leaves the returned array as it was and
        fits as the textbook does, through all 48 atoms of one round."""
        monkeypatch.setattr(netapprox, "_ROUNDS", 1)
        levels = [Fraction(j, 10) for j in range(-10, 11)]
        targets = [abs(lv) for lv in levels]
        before = SHARED_VALUES.copy()
        assert_same_fit(levels, targets, oracle, THETA, 1e-3)
        assert np.array_equal(SHARED_VALUES, before)


class TestArrayEvaluate:
    """``SigmaOracle.evaluate`` against the scalar evaluator."""

    SPECIAL = [0.0, -0.0, 745.0, -745.0, 1e300, -1e300, 5e-324, -5e-324]

    def inputs(self) -> np.ndarray:
        grid = np.linspace(-800.0, 800.0, 200_000)
        return np.concatenate([grid, self.SPECIAL]).reshape(2, -1)

    @staticmethod
    def scalar_loop(oracle: SigmaOracle, x: np.ndarray) -> np.ndarray:
        return np.array([oracle.evaluator(v) for v in x.ravel().tolist()]).reshape(x.shape)

    def test_table_is_bit_identical(self):
        x = self.inputs() / 50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = TABLE.evaluate(x)
        assert got.shape == x.shape
        assert np.array_equal(got, self.scalar_loop(TABLE, x))

    @pytest.mark.parametrize("oracle", [LOGISTIC, tanh_ramp_oracle()], ids=lambda o: o.name)
    def test_ufunc_oracles_match_to_an_ulp(self, oracle):
        """``np.exp``/``np.tanh`` may differ from ``math`` by an ulp.  The
        outputs lie in [0, 1], so the absolute floor is one ulp of 1.0: it
        covers subnormal logistic values near -710 and tanh-ramp near -19,
        where ``np.tanh`` rounds to -1 and ``math.tanh`` does not."""
        x = self.inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle.evaluate(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, self.scalar_loop(oracle, x), rtol=1e-15, atol=np.finfo(float).eps)

    @pytest.mark.parametrize(
        "oracle, formula",
        [
            (LOGISTIC, lambda x, e: np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))),
            (TANH_RAMP, lambda x, e: 0.5 * (1.0 + np.tanh(x))),
        ],
        ids=["logistic", "tanh-ramp"],
    )
    def test_in_place_evaluators_are_the_formulas(self, oracle, formula):
        """The in-place array evaluators give the bits of their formulas,
        written with a new array per operation, and leave their argument as
        it was."""
        x = np.concatenate([self.inputs().ravel(), [math.nan, math.inf, -math.inf, -1e-310]]).reshape(2, -1)
        kept = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle.evaluate(x)
            want = formula(x, np.exp(-np.abs(x)))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(x, kept, equal_nan=True)
        assert oracle.evaluate(np.array(-0.75)) == formula(-0.75, math.exp(-0.75))

    @pytest.mark.parametrize(
        "oracle",
        [SigmaOracle("cubic", lambda x: x**3 - 2 * x), SigmaOracle("exp", math.exp)],
        ids=lambda o: o.name,
    )
    def test_scalar_only_oracle_loops_its_evaluator(self, oracle):
        x = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        assert np.array_equal(oracle.evaluate(x), self.scalar_loop(oracle, x))


def assert_same_fit(levels, targets, oracle, theta, eps) -> UnivariateFit | None:
    """``approx_univariate`` selects the atoms, coefficients and error of
    :func:`textbook_approx_univariate`, or refuses with the same best error."""
    try:
        want = textbook_approx_univariate(levels, targets, oracle, theta, eps)
    except FitBudgetError as refused:
        with pytest.raises(FitBudgetError) as exc:
            approx_univariate(levels, targets, oracle, theta, eps)
        assert exc.value.best_error == refused.best_error
        return None
    got = approx_univariate(levels, targets, oracle, theta, eps)
    assert got.terms == want.terms
    assert got.achieved_error == want.achieved_error
    return got


def round_atoms(round_no: int) -> tuple[np.ndarray, np.ndarray]:
    """The float scales and thresholds of round ``round_no`` (1 or 2), atom by atom."""
    atoms = textbook_atoms(THETA, *{1: (8, 257), 2: (16, 515)}[round_no])
    return np.array([float(t) for t, _ in atoms]), np.array([float(th) for _, th in atoms])


DICTIONARY_CASES = [
    (oracle, size, round_no)
    for oracle in ARRAY_ORACLES + [SigmaOracle("atan", math.atan)]
    for size in ([1, 2, 17, 81, 300] if oracle.array_evaluator else [1, 2, 17])
    for round_no in (1, 2)
]


class TestDictionary:
    """The one-pass block build against the textbook whole-array build."""

    @pytest.mark.parametrize(
        "oracle, size, round_no",
        DICTIONARY_CASES,
        ids=[f"{o.name}-L{size}-round{r}" for o, size, r in DICTIONARY_CASES],
    )
    def test_blocks_are_the_whole_array_build(self, oracle, size, round_no):
        ft, fth = round_atoms(round_no)
        assert ft.size == {1: 8738, 2: 33990}[round_no]
        assert ft.size % netapprox._ATOM_BLOCK  # the last block is partial
        rng = random.Random(size)
        ys = np.array(sorted(rng.uniform(-6.0, 6.0) for _ in range(size)))
        columns, norms = netapprox._dictionary(ys, ft, fth, oracle)
        want_columns, want_norms = textbook_dictionary(ys, ft, fth, oracle)
        assert np.array_equal(columns, want_columns)
        assert np.array_equal(norms, want_norms)


def profile_tables(case: str) -> tuple[int, list]:
    """The direction count and the ridge tables of a fit case."""
    if case.startswith("curve-"):
        cfg = random_curve(random.Random(int(case[-1])))
        values = [p[0] * p[1] * p[2] for p in cfg.points]
    else:
        preset, target = case.rsplit("-", 1)
        cfg = config_preset(preset)
        values = target_values(target, cfg)
    ridge, _ = interpolate_ridge(cfg, values)
    return cfg.k, ridge.tables


class TestPinnedFits:
    """netfit's atom selection against the textbook greedy fit."""

    @pytest.mark.parametrize("oracle", ARRAY_ORACLES, ids=lambda o: o.name)
    @pytest.mark.parametrize("case", ["curve-0", "curve-1", "monotone-curve-prod", "parallel-segments-xy"])
    def test_netfit_budget_fits_are_the_textbook_fits(self, case, oracle):
        """Every table at netfit's per-direction budget of a 1e-2 fit."""
        k, tables = profile_tables(case)
        for table in tables:
            fit = assert_same_fit(table.levels, table.values, oracle, THETA, 1e-2 / (k + 1))
            assert fit is not None and fit.terms

    @pytest.mark.parametrize(
        "case, oracle, eps",
        [("curve-0", LOGISTIC, 7.88e-4), ("curve-0", TANH_RAMP, 7.62e-4), ("curve-1", TABLE, 2e-4)],
        ids=["logistic", "tanh-ramp", "table"],
    )
    def test_fit_that_needs_round_two(self, case, oracle, eps, monkeypatch):
        """An eps between the best errors of rounds 1 and 2."""
        table = profile_tables(case)[1][2]
        fit = assert_same_fit(table.levels, table.values, oracle, THETA, eps)
        assert fit is not None
        monkeypatch.setattr(netapprox, "_ROUNDS", 1)
        with pytest.raises(FitBudgetError):
            approx_univariate(table.levels, table.values, oracle, THETA, eps)

    @pytest.mark.parametrize("oracle", ARRAY_ORACLES, ids=lambda o: o.name)
    def test_fit_that_exhausts_every_round(self, oracle):
        """81 levels: rounds 1 to 3 run to the atom budget and the cap
        refuses round 4."""
        table = profile_tables("curve-0")[1][0]
        assert 81 * 130 * 1031 <= netapprox.MAX_DICTIONARY_ENTRIES < 81 * 258 * 2063
        assert len(table.levels) == 81
        assert assert_same_fit(table.levels, table.values, oracle, THETA, 1e-6) is None


class TestApproxNetwork:
    def test_constant_target(self):
        cfg = config_preset("parallel-segments")
        net = approx_network(cfg, [Fraction(3, 7)] * cfg.n, LOGISTIC, THETA, 1e-2)
        assert net.report["replayed_error"] <= 1e-2

    def test_parallel_segments_end_to_end(self):
        cfg = config_preset("parallel-segments")
        values = target_values("x2-y", cfg)
        net = approx_network(cfg, values, LOGISTIC, THETA, 1e-2)
        rep = net.report
        assert rep["replayed_error"] <= 1e-2
        assert rep["replayed_error"] <= rep["ridge_residual"] + sum(
            rep["per_direction_errors"]
        ) + 1e-9
        assert all(THETA.contains(t.theta) for t in net.terms)

    def test_curve_end_to_end(self):
        cfg = config_preset("monotone-curve")
        values = target_values("prod", cfg)
        net = approx_network(cfg, values, LOGISTIC, THETA, 1e-1)
        assert net.report["replayed_error"] <= 1e-1

    def test_polynomial_activation_refused(self):
        cfg = config_preset("parallel-segments")
        cubic = SigmaOracle("cubic", lambda x: x**3 - 2 * x)
        with pytest.raises(PolynomialActivationError):
            approx_network(cfg, [0] * cfg.n, cubic, THETA, 1e-2)

    def test_closed_path_refused_with_certificate(self):
        cfg = config_preset("grid-3x3")
        with pytest.raises(DensityPreconditionError) as exc:
            approx_network(cfg, [0] * cfg.n, LOGISTIC, THETA, 1e-2)
        assert exc.value.certificate.verify(cfg.dirs)

    def test_nan_eps_refused(self):
        cfg = config_preset("parallel-segments")
        with pytest.raises(ValueError, match="eps"):
            approx_network(cfg, [0] * cfg.n, LOGISTIC, THETA, math.nan)

    @pytest.mark.parametrize("oracle", [LOGISTIC, tanh_ramp_oracle(), TABLE], ids=lambda o: o.name)
    @pytest.mark.parametrize("preset, target", [("monotone-curve", "prod"), ("parallel-segments", "xy")])
    def test_replayed_error_is_eval_network(self, oracle, preset, target):
        cfg = config_preset(preset)
        values = target_values(target, cfg)
        net = approx_network(cfg, values, oracle, THETA, 1e-2)
        assert net.report["replayed_error"] == textbook_replayed_error(cfg, values, net)


def random_curve(rng: random.Random, n: int = 81) -> PointConfig:
    """A monotone curve in R^3 with seeded rational coordinates over mixed
    denominators, under three rational directions."""
    candidates = sorted({Fraction(rng.randint(-60, 60), rng.choice([120, 160, 210])) for _ in range(4 * n)})
    ts = sorted(rng.sample(candidates, n))
    points = tuple(Point.of(t, t - Fraction(1, 4) + Fraction(rng.randint(-4, 4), 160), 3 * t / 7) for t in ts)
    dirs = (Direction.of(1, 0, 0), Direction.of(0, Fraction(2, 3), 0), Direction.of(0, 0, Fraction(-5, 4)))
    return PointConfig(points, dirs)


class TestReplay:
    """The netfit replay and ``eval_network`` against the textbook network evaluator."""

    @pytest.mark.parametrize("oracle", [LOGISTIC, tanh_ramp_oracle(), TABLE], ids=lambda o: o.name)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_curve_replay_is_eval_network(self, oracle, seed):
        cfg = random_curve(random.Random(seed))
        assert cfg.n == 81
        values = [p[0] * p[1] * p[2] for p in cfg.points]
        net = approx_network(cfg, values, oracle, THETA, 1e-2)
        assert net.report["replayed_error"] == textbook_replayed_error(cfg, values, net)

    @pytest.mark.parametrize("oracle", [LOGISTIC, tanh_ramp_oracle(), TABLE], ids=lambda o: o.name)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_network_replay_is_eval_network(self, oracle, seed):
        """Weights with mixed denominators, zero coordinates and thresholds
        of any sign, on points over several denominators."""
        rng = random.Random(seed)
        dim = rng.randint(1, 4)
        points = {tuple(random_rational(rng, 30, 9) for _ in range(dim)) for _ in range(40)}
        cfg = PointConfig(tuple(map(Point, sorted(points))), (Direction.of(*[1] * dim),))
        terms = []
        for _ in range(rng.randint(1, 12)):
            w = [random_rational(rng, 20, 11) if rng.random() < 0.7 else Fraction(0) for _ in range(dim)]
            w[rng.randrange(dim)] = random_rational(rng, 20, 11) or Fraction(1)
            terms.append(NetworkTerm(random_rational(rng, 99, 13), Direction(tuple(w)), random_rational(rng, 60, 17)))
        net = Network(tuple(terms), oracle)
        want = [textbook_eval_network(net, x) for x in cfg.points]
        assert activation._network_values(net, cfg.integer_columns) == want
        assert [eval_network(net, x) for x in cfg.points] == want

    def test_replay_catches_a_skewed_coefficient(self, monkeypatch):
        """A fit whose first coefficient is changed after it reported its
        error makes the replayed error exceed the accounted bound."""
        real = netapprox.approx_univariate

        def skewed(*args):
            fit = real(*args)
            (c, t, th), *rest = fit.terms
            return replace(fit, terms=((c + 1, t, th), *rest))

        monkeypatch.setattr(netapprox, "approx_univariate", skewed)
        cfg = config_preset("monotone-curve")
        with pytest.raises(AssertionError, match="error budget accounting violated"):
            approx_network(cfg, target_values("prod", cfg), LOGISTIC, THETA, 1e-2)


class TestOracles:
    def test_sigma_by_name(self):
        assert sigma_by_name("logistic").name == "logistic"
        assert sigma_by_name("tanh-ramp").evaluator(0.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            sigma_by_name("mystery")

    def test_table_oracle_interpolates(self):
        table = table_oracle([(-1.0, 0.0), (0.0, 1.0), (2.0, 3.0)])
        assert table.evaluator(-0.5) == pytest.approx(0.5)
        assert table.evaluator(1.0) == pytest.approx(2.0)
        assert table.evaluator(10.0) == pytest.approx(3.0)  # clamped

    def test_table_oracle_from_csv(self, tmp_path):
        from ridgekit import table_oracle_from_csv

        csv = tmp_path / "act.csv"
        csv.write_text("x,y\n-2,0\n0,0.5\n2,1\n")
        oracle = table_oracle_from_csv(str(csv))
        assert oracle.evaluator(-1.0) == pytest.approx(0.25)
        assert oracle.params["points"][0] == [-2.0, 0.0]

    @pytest.mark.parametrize(
        "points, index",
        [
            ([(0, 0), (math.nan, 1), (2, 1)], 1),
            ([(0, 0), (1, math.inf), (2, 1)], 1),
            ([(0, 0), (1, 1), (-0.0, 1)], 2),
        ],
        ids=["nan-x", "inf-y", "repeated-x"],
    )
    def test_table_oracle_rejects_bad_points(self, points, index):
        with pytest.raises(ValueError, match=f"table point {index}:"):
            table_oracle(points)

    def test_oracle_network_round_trip(self):
        from ridgekit import Network

        cfg = config_preset("parallel-segments")
        net = approx_network(cfg, target_values("xy", cfg), LOGISTIC, THETA, 1e-2)
        back = Network.from_dict(net.to_dict())
        assert back.terms == net.terms
        assert back.activation.name == "logistic"

    def test_logistic_bounds(self):
        f = LOGISTIC.evaluator
        assert 0.0 < f(-30.0) < 1e-12
        assert 1.0 - 1e-12 < f(30.0) < 1.0

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance and runtime cap is pinned here.
"""

import random
import time
from fractions import Fraction

from helpers import oracle_has_closed_path, random_config, random_values
from ridgekit import (
    ActivationSpec,
    Direction,
    DiscreteMeasure,
    Point,
    PointConfig,
    ThetaInterval,
    PolynomialActivationError,
    SigmaOracle,
    approx_network,
    bolt_measure,
    build_bolt_graph,
    build_k_network,
    decode_poly,
    encode_poly,
    eval_network,
    find_closed_bolt,
    find_closed_path,
    integrate,
    interpolate_ridge,
    is_annihilating,
    logistic_oracle,
    orbits,
    paper_orbit_generator,
    pushforward,
    sigma_eval,
    total_variation,
    weak_star_probe,
)
from ridgekit.cli import JobConfig, run
from ridgekit.presets import config_preset, probe_test, target_values

SWEEP_SEED = 20260810


def report(cid: str, text: str) -> None:
    print(f"[acceptance] {cid} PASS  {text}")


def sweep_configs(count: int = 500) -> list[PointConfig]:
    rng = random.Random(SWEEP_SEED)
    return [random_config(rng) for _ in range(count)]


def test_c01_paper_five_point_fixture():
    start = time.perf_counter()
    cfg = config_preset("paper-5pt")
    cert = find_closed_path(cfg)
    assert cert is not None
    weights = cert.weights_for(cfg.points)
    reference = [-2, 1, 1, 1, -1]
    ratio = Fraction(weights[0], reference[0])
    assert ratio != 0 and all(w == ratio * r for w, r in zip(weights, reference))
    assert cert.verify(cfg.dirs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("C01", f"five-point certificate proportional to (-2,1,1,1,-1) in {elapsed:.3f}s")


def test_c02_oracle_equivalence_sweep():
    start = time.perf_counter()
    configs = sweep_configs(500)
    matches = 0
    for cfg in configs:
        detected = find_closed_path(cfg) is not None
        assert detected == oracle_has_closed_path(cfg)
        matches += 1
    elapsed = time.perf_counter() - start
    assert matches == 500
    assert elapsed < 60.0
    report("C02", f"500/500 verdicts match the brute-force null-space oracle in {elapsed:.1f}s")


def test_c03_finite_duality():
    rng = random.Random(SWEEP_SEED + 1)
    counterexamples = 0
    for cfg in sweep_configs(500):
        path_free = find_closed_path(cfg) is None
        residuals = [
            interpolate_ridge(cfg, random_values(rng, cfg.n))[1] for _ in range(20)
        ]
        all_zero = all(r == 0 for r in residuals)
        if path_free != all_zero:
            counterexamples += 1
    assert counterexamples == 0
    report("C03", "residual==0 for 20 random data vectors iff path-free, 500/500")


def test_c04_pushforward_identity_and_contraction():
    rng = random.Random(SWEEP_SEED + 2)
    for _ in range(1000):
        d = rng.randint(1, 3)
        atoms = []
        for _ in range(rng.randint(0, 6)):
            point = Point.from_seq(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            )
            atoms.append((point, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
        mu = DiscreteMeasure.from_atoms(atoms)
        vec = [rng.randint(-3, 3) for _ in range(d)]
        if not any(vec):
            vec[rng.randrange(d)] = 1
        a = Direction.from_seq(vec)
        proj = pushforward(mu, a)
        table = {lv: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for lv in proj.levels}
        for p in mu.support:
            table.setdefault(a.dot(p), Fraction(0))
        lhs = integrate(mu, lambda p: table[a.dot(p)])
        rhs = sum((w * table[lv] for lv, w in proj.atoms()), Fraction(0))
        assert lhs == rhs
        assert total_variation(proj) <= total_variation(mu)
    report("C04", "change of variables and norm contraction exact on 1000 random instances")


def test_c05_bolt_fixtures():
    gen = paper_orbit_generator()
    bolt = gen.generate(10)
    listed = [
        (0, 0),
        (1, -1),
        (0, -2),
        (Fraction(-3, 2), Fraction(-1, 2)),
        (0, 1),
        (Fraction(3, 4), Fraction(1, 4)),
        (0, Fraction(-1, 2)),
        (Fraction(-3, 8), Fraction(-1, 8)),
        (0, Fraction(1, 4)),
        (Fraction(3, 16), Fraction(1, 16)),
    ]
    assert [p.coords for p in bolt.points] == [
        (Fraction(a), Fraction(b)) for a, b in listed
    ]
    graph = build_bolt_graph(bolt.points, gen.a1, gen.a2)
    assert find_closed_bolt(graph) is None
    assert len(orbits(graph)) == 1

    grid = config_preset("grid-2x2")
    grid_graph = build_bolt_graph(grid.points, grid.dirs[0], grid.dirs[1])
    closed = find_closed_bolt(grid_graph)
    assert closed is not None and closed.closed
    mu = bolt_measure(closed, len(closed))
    assert is_annihilating(mu, grid.dirs)
    assert total_variation(mu) == 1
    report("C05", "orbit truncation exact, unclosed, single orbit; grid bolt annihilates")


def test_c06_weak_star_probe():
    gen = paper_orbit_generator()
    tests = [
        probe_test("x"),
        probe_test("y"),
        probe_test("x2"),
        probe_test("ridge-identity"),
    ]
    report_obj = weak_star_probe(gen, tests, 1000, Fraction(1, 100))
    assert report_obj.ridge_bounds_ok
    for name in ("x", "y", "x2"):
        assert report_obj.final_values[name] <= 0.01
    assert report_obj.verdict == "consistent-with-zero"
    report("C06", "ridge bound holds for all n<=1000; |∫f dμₙ| < 1e-2 for x, y, x²")


def test_c07_segment_exactness():
    spec = ActivationSpec.create(1, 1, 1)
    rng = random.Random(SWEEP_SEED + 3)
    checks = 0
    for m in range(1, 101):
        p = decode_poly(m)
        for _ in range(10):
            t = Fraction(rng.randint(-1000, 1000), 1000)
            arg = spec.scale * t + 2 * m * spec.alpha - spec.alpha / 2
            value = sigma_eval(spec, arg)
            assert isinstance(value, Fraction)
            assert value == p.eval_exact(t)
            checks += 1
    assert checks == 1000
    report("C07", "segment values equal decoded polynomials exactly (1000 checks)")


def test_c08_enumeration_bijection():
    start = time.perf_counter()
    for m in range(1, 10_001):
        assert encode_poly(decode_poly(m)) == m
    rng = random.Random(SWEEP_SEED + 4)
    for _ in range(1000):
        m = rng.randrange(1, 10**50)
        assert encode_poly(decode_poly(m)) == m
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("C08", f"10^4 sequential + 10^3 random indices round-trip in {elapsed:.1f}s")


def test_c09_exact_unit_count_networks():
    start = time.perf_counter()
    cfg = config_preset("parallel-segments")
    values = target_values("xy", cfg)
    net = build_k_network(cfg, values, Fraction(1, 100))
    assert len(net.terms) == 2
    assert all(t.c == 1 for t in net.terms)
    worst = max(abs(v - eval_network(net, p)) for p, v in zip(cfg.points, values))
    assert worst <= Fraction(1, 100)
    seg_elapsed = time.perf_counter() - start
    assert seg_elapsed < 120.0

    start = time.perf_counter()
    curve = config_preset("monotone-curve")
    curve_values = target_values("norm", curve)
    curve_net = build_k_network(curve, curve_values, Fraction(1, 10))
    assert len(curve_net.terms) == 3
    assert all(t.c == 1 for t in curve_net.terms)
    curve_worst = max(
        abs(v - eval_network(curve_net, p)) for p, v in zip(curve.points, curve_values)
    )
    assert curve_worst <= Fraction(1, 10)
    curve_elapsed = time.perf_counter() - start
    assert curve_elapsed < 120.0
    report(
        "C09",
        f"2-unit xy error {float(worst):.2e} ({seg_elapsed:.1f}s); "
        f"3-unit norm error {float(curve_worst):.2e} ({curve_elapsed:.1f}s)",
    )


def test_c10_oracle_activation_networks():
    sigma = logistic_oracle()
    theta = ThetaInterval.create(-5, 5)
    for preset, fname in (("parallel-segments", "x2-y"), ("monotone-curve", "prod")):
        cfg = config_preset(preset)
        values = target_values(fname, cfg)
        net = approx_network(cfg, values, sigma, theta, 1e-2)
        assert net.report["replayed_error"] <= 1e-2
        assert all(theta.contains(t.theta) for t in net.terms)
    refused = False
    cubic = SigmaOracle("cubic", lambda x: 0.25 * x**3 + x - 1.0)
    try:
        approx_network(
            config_preset("parallel-segments"),
            [0] * 32,
            cubic,
            theta,
            1e-2,
        )
    except PolynomialActivationError:
        refused = True
    assert refused
    report("C10", "logistic networks hit 1e-2 with thresholds inside (-5,5); cubic refused")


def test_c11_smoothness_smoke_check():
    spec = ActivationSpec.create(1, 1, 1)

    def f(x: Fraction) -> float:
        return float(sigma_eval(spec, x))

    def d1(x, h):
        return (f(x + h) - f(x - h)) / (2 * float(h))

    def d2(x, h):
        return (f(x + h) - 2 * f(x) + f(x - h)) / float(h) ** 2

    def d3(x, h):
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (
            2 * float(h) ** 3
        )

    hs = [Fraction(1, 32), Fraction(1, 64), Fraction(1, 128)]
    junctions = 0
    for m in range(1, 21):
        x0 = Fraction(m)
        for order, diff in ((1, d1), (2, d2), (3, d3)):
            ests = [diff(x0, h) for h in hs]
            first = abs(ests[1] - ests[0])
            second = abs(ests[2] - ests[1])
            floor = 1e-6 * max(1.0, abs(ests[2]))
            if first <= floor and second <= floor:
                junctions += 1
                continue
            # C^3 behaviour: estimates converge at rate h^2, so successive
            # refinement gaps shrink by ~1/4; accept within a factor of 4.
            assert second <= max(first, floor), (m, order)
            junctions += 1
    assert junctions == 60
    report("C11", "orders 1-3 finite differences converge across all junctions m<=20")


def test_c12_cli_determinism(tmp_path):
    catalog = [
        ("paths", dict(preset="paper-5pt")),
        ("paths", dict(preset="grid-3x3")),
        ("paths", dict(preset="parallel-segments")),
        ("paths", dict(preset="monotone-curve")),
        ("paths", dict(preset="paper-orbit")),
        ("bolts", dict(preset="grid-2x2")),
        ("bolts", dict(preset="paper-orbit")),
        ("orbits", dict(preset="paper-orbit")),
        ("probe", dict(preset="paper-orbit", params={"tests": ["x", "x2"], "n": 300})),
        ("ridgefit", dict(preset="parallel-segments", params={"target": "xy"})),
        ("kfit", dict(preset="parallel-segments", params={"target": "xy", "eps": "1/100"})),
        (
            "netfit",
            dict(preset="parallel-segments", params={"target": "x2-y", "eps": "0.01"}),
        ),
        ("sigma-eval", dict(params={"start": "0", "stop": "6", "step": "1/8"})),
        ("sigma-build", dict(params={"poly": "1/4,0,-3/32", "eps": "0.001"})),
    ]
    for idx, (command, kwargs) in enumerate(catalog):
        artifacts = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{idx}-{attempt}"
            job = JobConfig(
                command,
                preset=kwargs.get("preset"),
                out_dir=str(out),
                params=dict(kwargs.get("params", {})),
                seed=11,
            )
            code = run(job)
            assert code in (0, 2)
            artifacts.append(
                sorted((p.name, p.read_bytes()) for p in out.iterdir())
            )
        assert artifacts[0] == artifacts[1], command
    report("C12", f"{len(catalog)} preset commands byte-identical across repeated runs")

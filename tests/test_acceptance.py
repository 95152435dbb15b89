"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with -s or check captured output)."""

import time

import numpy as np

from pdsplit import (
    BlockLinearOp,
    BlockVector,
    Box,
    CommonZeroProblem,
    CoupledInclusionProblem,
    FbfConfig,
    FeasibilityRelaxation,
    Hyperplane,
    IndicatorFunction,
    MultivariateMinProblem,
    NormalCone,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    SpaceSig,
    SquaredNorm,
    SummableErrorSchedule,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
    compute_beta,
    evaluate_objectives,
    solve_common_zero,
    solve_multivariate_min,
    solve_parallel_sum,
    solve_system,
)
from pdsplit.demos import (
    DEMO_NAMES,
    get_demo,
    legendre_normal_equations,
)
from pdsplit.fbf import epsilon_for
from pdsplit.selftest import run_selftest
from conftest import random_coupled_problem, random_parallel_sum
from oracles import (check_consistency_theorem, parallel_sum_iterates,
                     projected_gradient_oracle, system_iterates)


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_engine_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        prob = random_coupled_problem(rng)
        errors = SummableErrorSchedule(0.05, 2.0, seed=int(rng.integers(1000)))
        iterates = []
        cfg = FbfConfig(max_iters=50, residual_tol=0.0, errors=errors,
                        on_iteration=lambda n, w, p: iterates.append(w.copy()))
        rep = solve_system(prob, cfg)
        iterates.append(rep.trace.w)
        beta = compute_beta(prob)
        gamma = (1.0 - epsilon_for(cfg, beta)) / beta
        ref = system_iterates(prob, [gamma] * 50, errors)
        assert len(iterates) == len(ref) == 51
        worst = max(
            worst,
            max(np.linalg.norm(a - b) for a, b in zip(iterates, ref)),
        )
    elapsed = time.perf_counter() - t0
    verdict(
        "engine-equivalence",
        worst <= 1e-12 and elapsed < 10.0,
        f"20 instances, max iterate gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_two_box_coupling_solution():
    sig = SpaceSig((1, 1), (1,))
    prob = CoupledInclusionProblem(
        sig,
        [NormalCone(Box([2.0], [3.0])), NormalCone(Box([0.0], [1.0]))],
        [ZeroMap(), ZeroMap()],
        [ScaledIdentity(1.0)],
        [ZeroMap()],
        BlockLinearOp([[1.0, -1.0]], sig),
        BlockVector.zeros((1, 1)),
        BlockVector.zeros((1,)),
    )
    report = solve_system(prob, FbfConfig())
    dev = float(np.linalg.norm(report.primal.flat() - np.array([2.0, 1.0])))
    pk, dk = report.kkt
    ok = (report.converged and report.trace.iterations < 50000
          and dev <= 1e-6 and pk <= 1e-7 and dk <= 1e-7)
    verdict(
        "two-box-coupling",
        ok,
        f"x={report.primal.flat().round(8).tolist()} dev={dev:.2e} "
        f"kkt=({pk:.1e},{dk:.1e}) iters={report.trace.iterations}",
    )


def test_03_least_squares_lines():
    rng = np.random.default_rng(3)
    worst_dev, worst_time = 0.0, 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        K = int(rng.integers(dim, 9))
        lines = []
        for _ in range(K):
            u = rng.standard_normal(dim)
            u /= np.linalg.norm(u)
            lines.append((u, float(rng.uniform(-2, 2))))
        G = sum(np.outer(u, u) for u, _ in lines)
        if np.linalg.cond(G) > 1e3:
            continue
        prob = CommonZeroProblem(
            dim, ZeroOperator(),
            [NormalCone(Hyperplane(u, rho)) for u, rho in lines],
            [ScaledIdentity(1.0)] * K,
        )
        # CPU time of this process: time the host gives other tenants
        # does not count against the 5 s budget
        t0 = time.process_time()
        report = solve_common_zero(prob, FbfConfig(residual_tol=1e-12))
        worst_time = max(worst_time, time.process_time() - t0)
        want = legendre_normal_equations(lines)
        worst_dev = max(
            worst_dev, float(np.linalg.norm(report.primal.flat() - want))
        )
    verdict(
        "least-squares-lines",
        worst_dev <= 1e-6 and worst_time < 5.0,
        f"max deviation {worst_dev:.2e}, slowest solve {worst_time:.2f}s CPU",
    )


def test_04_consistency_of_common_zeros():
    rng = np.random.default_rng(4)
    passed = 0
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        K = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 1.0, dim)
        box = lambda: Box(c - rng.uniform(0.2, 1.0, dim),
                          c + rng.uniform(0.2, 1.0, dim))
        prob = CommonZeroProblem(
            dim, NormalCone(box()),
            [NormalCone(box()) for _ in range(K)],
            [ScaledIdentity(1.0)] * K,
        )
        report = solve_common_zero(prob, FbfConfig())
        if report.converged and check_consistency_theorem(
            prob, report.primal.flat(), 1e-6
        ):
            passed += 1
    verdict("common-zero-consistency", passed == 10,
            f"{passed}/10 consistent instances certified at 1e-6")


def test_05_feasibility_relaxation_oracles():
    demo = get_demo("boxhalf")
    report = solve_parallel_sum(demo.build(), FbfConfig())
    dev = float(np.linalg.norm(report.primal.flat() - np.array([1.0, 1.0])))
    ok = dev <= 1e-5

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        lo = rng.uniform(-1.0, 0.0, 2)
        hi = lo + rng.uniform(0.5, 2.0, 2)
        sets = [Box(lo, hi)]
        phi = [IndicatorFunction(Point([0.0, 0.0]))]
        L = [1.0]
        while True:  # two non-parallel penalty directions
            u1, u2 = rng.standard_normal(2), rng.standard_normal(2)
            u1 /= np.linalg.norm(u1)
            u2 /= np.linalg.norm(u2)
            if abs(u1[0] * u2[1] - u1[1] * u2[0]) > 0.3:
                break
        for u in (u1, u2):
            sets.append(Hyperplane(u, float(rng.uniform(-2, 2))))
            phi.append(SquaredNorm(float(rng.uniform(0.5, 2.0))))
            L.append(float(rng.uniform(0.5, 1.5)))
        p = FeasibilityRelaxation(dim=2, sets=sets, phi=phi, L=L)
        rep = solve_parallel_sum(p, FbfConfig())
        oracle = projected_gradient_oracle(p)
        worst = max(worst, float(np.linalg.norm(rep.primal.flat() - oracle)))
    verdict(
        "feasibility-relaxation",
        ok and worst <= 1e-5,
        f"box/line deviation {dev:.2e}; max oracle gap {worst:.2e} over 5",
    )


def _random_quadratic_min(rng):
    m = int(rng.integers(1, 3))
    K = int(rng.integers(1, 3))
    dp = tuple(int(rng.integers(1, 3)) for _ in range(m))
    dd = tuple(int(rng.integers(1, 3)) for _ in range(K))
    sig = SpaceSig(dp, dd)
    L = BlockLinearOp(
        [[rng.standard_normal((dd[k], dp[i])) for i in range(m)]
         for k in range(K)],
        sig,
    )
    ell = [None if rng.integers(0, 2) else SquaredNorm(float(rng.uniform(0.5, 2)))
           for _ in range(K)]
    return MultivariateMinProblem(
        sig,
        f=[QuadraticDistance(rng.standard_normal(d)) for d in dp],
        h=[ZeroFunction() for _ in range(m)],
        g=[QuadraticDistance(rng.standard_normal(d)) for d in dd],
        ell=ell,
        z=BlockVector([0.1 * rng.standard_normal(d) for d in dp]),
        r=BlockVector([rng.standard_normal(d) for d in dd]),
        L=L,
    )


def test_06_duality_gap_and_weak_duality():
    rng = np.random.default_rng(6)
    worst_gap, worst_neg = 0.0, 0.0
    for _ in range(10):
        p = _random_quadratic_min(rng)
        iterates = []
        report = solve_multivariate_min(
            p, FbfConfig(residual_tol=1e-11,
                         on_iteration=lambda n, w, q: iterates.append(w.copy()))
        )
        assert report.converged
        iterates.append(report.trace.w)
        m = p.sig.m
        for w in iterates:
            x, v = BlockVector.wrap(w, p.sig.dims_primal + p.sig.dims_dual).split(m)
            pv, dv = evaluate_objectives(p, x, v)
            if np.isfinite(pv) and np.isfinite(dv):
                worst_neg = min(worst_neg, pv + dv)
        pv, dv = evaluate_objectives(p, report.primal, report.dual)
        worst_gap = max(worst_gap, abs(pv + dv))
    verdict(
        "duality",
        worst_gap <= 1e-6 and worst_neg >= -1e-9,
        f"max |gap| at solution {worst_gap:.2e}; "
        f"most negative iterate gap {worst_neg:.2e}",
    )


def test_07_error_tolerance_on_demos():
    details = []
    ok = True
    for name in DEMO_NAMES:
        demo = get_demo(name)
        clean, x0 = demo.solve(FbfConfig())
        n0 = clean.trace.iterations
        noisy, x1 = demo.solve(
            FbfConfig(errors=SummableErrorSchedule(0.1, 2.0, seed=3),
                      max_iters=10 * n0)
        )
        dev = float(np.linalg.norm(np.asarray(x1) - np.asarray(x0)))
        ok = ok and dev <= 1e-5 and noisy.trace.iterations <= 10 * n0
        details.append(f"{name} dev={dev:.1e} ({noisy.trace.iterations}it)")
    verdict("error-tolerance", ok, "; ".join(details))


def test_08_operator_property_suite():
    t0 = time.perf_counter()
    rows = {name: passed for name, passed, _ in run_selftest(seed=0)}
    elapsed = time.perf_counter() - t0
    wanted = ("firm_nonexpansiveness", "moreau_identity",
              "shifted_inverse_resolvent_identity", "adjoint_identity",
              "yosida_lipschitz")
    ok = all(rows[name] for name in wanted) and elapsed < 5.0
    verdict("operator-properties", ok,
            f"{sum(rows[n] for n in wanted)}/5 properties, {elapsed:.1f}s")


def test_09_square_summable_residuals():
    runs = []
    for name in DEMO_NAMES:
        diffs = []
        report, _ = get_demo(name).solve(
            FbfConfig(on_iteration=lambda n, w, p: diffs.append(w - p))
        )
        runs.append((name, report, diffs))
    worst_tail = 0.0
    ok = True
    for name, report, diffs in runs:
        ok = ok and report.converged
        split = len(diffs[0]) - len(report.dual.flat())
        for part in (slice(None, split), slice(split, None)):
            sq = np.array([np.linalg.norm(d[part]) for d in diffs]) ** 2
            ok = ok and np.isfinite(sq.sum())
            worst_tail = max(worst_tail, sq[-1])
    verdict(
        "square-summability",
        ok and worst_tail < 1e-12,
        f"{len(runs)} runs, bounded partial sums, "
        f"largest tail increment {worst_tail:.1e}",
    )


def test_10_lifting_soundness():
    rng = np.random.default_rng(10)
    worst = 0.0
    exact_stops = 0
    for _ in range(10):
        p = random_parallel_sum(rng)
        iterates = []
        cfg = FbfConfig(max_iters=50, residual_tol=0.0,
                        on_iteration=lambda n, w, p: iterates.append(w.copy()))
        rep = solve_parallel_sum(p, cfg)
        iterates.append(rep.trace.w)
        # the run takes its steps from the trajectory; the reference
        # replays them, and a run that stopped early keeps its last one
        steps = [gamma for _, gamma, _ in rep.trace.rows]
        ref = parallel_sum_iterates(p, steps + steps[-1:] * (50 - len(steps)))
        assert len(ref) == 51
        if rep.trace.stop_reason == "converged":
            # with residual_tol 0 the run stops early only at an exact fixed
            # point; the reference must then stay at the last iterate
            assert rep.trace.rows[-1][2] == 0.0
            exact_stops += 1
            rest = ref[len(iterates):]
        else:
            assert len(iterates) == 51
            rest = []
        worst = max(
            worst,
            max(np.linalg.norm(a - b) for a, b in zip(iterates, ref)),
            max((np.linalg.norm(b - iterates[-1]) for b in rest), default=0.0),
        )
    verdict("lifting-soundness", worst <= 1e-12,
            f"10 instances ({exact_stops} exact fixed points), "
            f"max iterate gap {worst:.2e}")

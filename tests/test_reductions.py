import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdsplit import (
    Ball,
    BlockLinearOp,
    BlockVector,
    Box,
    CommonZeroProblem,
    ConvexFunction,
    CoupledInclusionProblem,
    EvaluationError,
    FbfConfig,
    FeasibilityRelaxation,
    Hyperplane,
    IndicatorFunction,
    L1Norm,
    LipschitzOperator,
    MultivariateMinProblem,
    NormalCone,
    ParallelSumProblem,
    ParameterError,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    ScaledIdentityMap,
    SignatureError,
    SpaceSig,
    SquaredNorm,
    UnivariateMinProblem,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
    compute_beta,
    dual_objective,
    evaluate_objectives,
    lift_parallel_sum,
    primal_objective,
    relaxation_objective,
    solve_common_zero,
    solve_multivariate_min,
    solve_parallel_sum,
)
from pdsplit.cli import make_config
from pdsplit.demos import DEMO_NAMES, get_demo
from pdsplit.probfile import build_problem, parse_problem
from conftest import random_parallel_sum
from oracles import (
    check_consistency_theorem,
    check_qualification,
    conj_box_plus_sqdist,
    conj_l1_plus_sqnorm,
    dense_coupling,
    objectives_blockwise,
    parallel_sum_iterates,
    projected_gradient_oracle,
    resolvent_bisection,
)
from test_cli import problem_files


# --- lifting -----------------------------------------------------------------

def test_lift_without_auxiliaries_is_direct_embedding():
    p = ParallelSumProblem(
        dim=2, dual_dims=(2,), K1=0, K2=0,
        A=ZeroOperator(), C=ZeroMap(), z=np.zeros(2), r=[np.zeros(2)],
        B=[ScaledIdentity(1.0)], S=[ScaledIdentityMap(0.5)], L=[1.0],
    )
    lifted = lift_parallel_sum(p)
    assert lifted.sig.m == 1 and lifted.sig.K == 1
    assert lifted.Dinv[0] is p.S[0]


def test_lift_single_resolvent_coupling():
    p = ParallelSumProblem(
        dim=1, dual_dims=(1,), K1=1, K2=1,
        A=ZeroOperator(), C=ZeroMap(), z=np.zeros(1), r=[np.zeros(1)],
        B=[ScaledIdentity(1.0)], S=[ScaledIdentity(1.0)], L=[1.0],
    )
    lifted = lift_parallel_sum(p)
    assert lifted.sig.dims_primal == (1, 1)
    assert lifted.L.entries[0] == [1.0, -1.0]
    assert lifted.L.lambda_bound == pytest.approx(2.0)


def test_lift_default_norm_bound_matches_the_stacked_estimate(rng):
    # with n_k = ||L_k||, the lifted grid of entry norms has
    # N N^T = n n^T + diag(1, .., 1, 0, .., 0): ||N||^2 <= 1 + sum_k n_k^2,
    # with equality when every coupling has an auxiliary (K2 = K)
    for _ in range(200):
        p = random_parallel_sum(rng, max_K=5)
        L = lift_parallel_sum(p).L
        stacked = 1.0 + sum(e * e if isinstance(e, float) else np.linalg.norm(e, 2) ** 2
                            for e in p.L)
        assert np.linalg.norm(dense_coupling(L), 2) ** 2 <= L.lambda_bound <= stacked * (1 + 1e-5)
        if p.K2 == p.K:
            assert L.lambda_bound >= stacked * (1 - 1e-12)


def test_lift_shapes(rng):
    for _ in range(10):
        p = random_parallel_sum(rng)
        lifted = lift_parallel_sum(p)
        assert lifted.sig.dims_primal == (p.dim,) + p.dual_dims[: p.K2]
        assert lifted.sig.dims_dual == p.dual_dims


def _lifting_gaps(p, gamma):
    """Gaps between a parallel-sum run at the config's step (None: from
    the trajectory) and the reference replaying the run's steps."""
    iterates = []
    cfg = FbfConfig(max_iters=50, residual_tol=0.0, gamma=gamma,
                    on_iteration=lambda n, w, p: iterates.append(w.copy()))
    rep = solve_parallel_sum(p, cfg)
    iterates.append(rep.trace.w)
    steps = [g for _, g, _ in rep.trace.rows]
    assert gamma is None or steps == [gamma] * 50
    return [np.linalg.norm(a - b) for a, b in zip(iterates, parallel_sum_iterates(p, steps))]


def test_lifting_soundness_iterates_match(rng):
    for _ in range(5):
        gaps = _lifting_gaps(random_parallel_sum(rng), None)
        assert len(gaps) == 51 and max(gaps) <= 1e-12


def test_lifting_soundness_iterates_match_at_a_fixed_step(rng):
    for _ in range(5):
        p = random_parallel_sum(rng)
        gamma = 0.5 * (1.0 - 1e-2) / compute_beta(lift_parallel_sum(p))
        gaps = _lifting_gaps(p, gamma)
        assert len(gaps) == 51 and max(gaps) <= 1e-12


def _two_coupling_univariate():
    """min ||x||_1 / 2 + (g_1 infconv phi_1)(x) + (g_2 infconv phi_2)(2 x - 1)
    + ||x - a||^2 / 2: phi_1 by prox, phi_2 the strongly convex SquaredNorm."""
    return UnivariateMinProblem(
        dim=2, dual_dims=(2, 2), K1=1, K2=1,
        f=L1Norm(0.5), h=QuadraticDistance([1.0, -1.0]),
        g=[QuadraticDistance([2.0, -1.0]), IndicatorFunction(Box([0.0, 0.0], [1.0, 1.0]))],
        phi=[IndicatorFunction(Point([0.0, 0.0])), SquaredNorm(0.8)],
        z=np.zeros(2), r=[np.zeros(2), np.ones(2)], L=[1.0, 2.0],
    )


def _two_solves(solver, p):
    """The iterates, last iterate and certificate of two solves of p."""
    runs = []
    for _ in range(2):
        seen = []
        cfg = FbfConfig(max_iters=200, on_iteration=lambda n, w, p: seen.append(w.copy()))
        report = solver(p, cfg)
        runs.append((seen, report.trace.w, report.kkt))
    return runs


@pytest.mark.parametrize("kind", ["multivar_min", "parallel_sum", "common_zero",
                                  "univar_min", "feasibility"])
def test_a_front_end_problem_builds_its_system_once(kind, monkeypatch):
    # a parallel-sum front end lifts at its first solve through
    # lift_parallel_sum, which builds the system; a minimization is its
    # system, built with it, and a solve builds none
    import pdsplit.reductions as red

    builds = Counter()
    init, lift = CoupledInclusionProblem.__init__, red.lift_parallel_sum
    monkeypatch.setattr(CoupledInclusionProblem, "__init__",
                        lambda *args: builds.update(["system"]) or init(*args))
    monkeypatch.setattr(red, "lift_parallel_sum", lambda p: builds.update(["lift"]) or lift(p))
    if kind == "parallel_sum":
        prob, solver = random_parallel_sum(np.random.default_rng(3)), solve_parallel_sum
    elif kind == "univar_min":
        prob, solver = _two_coupling_univariate(), solve_parallel_sum
    else:
        demo = {"multivar_min": "lasso1d", "common_zero": "legendre",
                "feasibility": "boxhalf"}[kind]
        prob, solver = build_problem(parse_problem(get_demo(demo).text))
    at_build = builds.copy()
    builds.clear()
    (first, w1, kkt1), (second, w2, kkt2) = _two_solves(solver, prob)
    if kind == "multivar_min":
        assert at_build == Counter(system=1) and not builds
    else:
        assert not at_build and builds == Counter(system=1, lift=1)
    assert len(first) == len(second) > 1 and kkt1 == kkt2 and np.array_equal(w1, w2)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


@pytest.mark.parametrize("name, checks", [("twobox", 6), ("lasso1d", 4)])
def test_a_minimization_fits_each_member_once(name, checks, monkeypatch):
    # f, h, g and ell, one per block, are fit when the problem is built;
    # their subdifferentials and gradients, the system's members, are not
    # fit again, at build or at a solve
    import pdsplit.operators as ops

    calls = []
    misfit = ops.misfit
    monkeypatch.setattr(ops, "misfit", lambda op, d: calls.append(op) or misfit(op, d))
    prob, solver = build_problem(parse_problem(get_demo(name).text))
    _two_solves(solver, prob)
    assert len(calls) == checks == 2 * prob.sig.m + 2 * prob.sig.K


def _fitting_multivar(**changes):
    sig = SpaceSig((2,), (1,))
    args = dict(sig=sig, f=[ZeroFunction()], h=[ZeroFunction()], g=[ZeroFunction()],
                ell=[None], z=BlockVector.zeros((2,)), r=BlockVector.zeros((1,)),
                L=BlockLinearOp([[np.ones((1, 2))]], sig))
    return MultivariateMinProblem(**{**args, **changes})


@pytest.mark.parametrize("changes, message", [
    ({"z": BlockVector([np.zeros(3)])}, "z vector has blocks (3,), expected (2,)"),
    ({"r": BlockVector.zeros((1, 1))}, "r vector has blocks (1, 1), expected (1,)"),
], ids=["z", "r"])
def test_a_minimization_with_a_misfit_shift_fails_when_built(changes, message):
    # a 3-entry z for a 2-entry block went unchecked until evaluate_objectives
    # failed with numpy's matmul error
    _fitting_multivar()
    with pytest.raises(SignatureError) as exc:
        _fitting_multivar(**changes)
    assert str(exc.value) == message


# --- parallel-sum solving ----------------------------------------------------

def scalar_psum(A, B, Sinv, z):
    return ParallelSumProblem(
        dim=1, dual_dims=(1,), K1=0, K2=0,
        A=A, C=ZeroMap(), z=np.array([z]), r=[np.zeros(1)],
        B=[B], S=[Sinv], L=[1.0],
    )


def test_parallel_sum_matches_scalar_bisection():
    # z in A(x) + B(x) with A = N_[0,inf) and B = c*Id; with the inverse
    # coupling map set to zero the parallel sum collapses to B itself
    for c, z in ((1.0, 3.0), (2.0, 3.0), (0.5, -4.0)):
        p = scalar_psum(NormalCone(Box([0.0], [np.inf])),
                        ScaledIdentity(c), ZeroMap(), z)
        report = solve_parallel_sum(p, FbfConfig())
        assert report.converged

        def graph(t):  # graph of A + (c-1)*Id so x in p + 1*(...) solves it
            if t < 0:
                return (-np.inf, -np.inf)  # outside dom A: t is too small
            lo, hi = (0.0, 0.0) if t > 0 else (-np.inf, 0.0)
            return (lo + (c - 1.0) * t, hi + (c - 1.0) * t)

        want = resolvent_bisection(graph, 1.0, z)
        assert report.primal[0][0] == pytest.approx(want, abs=1e-7)


def test_parallel_sum_constant_resolvent():
    p = scalar_psum(NormalCone(Point([2.5])), ScaledIdentity(1.0),
                    ZeroMap(), 0.0)
    report = solve_parallel_sum(p, FbfConfig())
    assert report.primal[0][0] == pytest.approx(2.5, abs=1e-6)


def test_cross_encoding_consistency():
    # the same coupling written with resolvent access (K1=K2=K) and with
    # forward access to the inverse (K1=K2=0) must agree
    A = NormalCone(Box([0.0], [4.0]))
    B = NormalCone(Box([1.0], [2.0]))
    c = 2.0
    direct = ParallelSumProblem(
        dim=1, dual_dims=(1,), K1=1, K2=1,
        A=A, C=ZeroMap(), z=np.array([3.0]), r=[np.zeros(1)],
        B=[B], S=[ScaledIdentity(c)], L=[1.0],
    )
    inverse = ParallelSumProblem(
        dim=1, dual_dims=(1,), K1=0, K2=0,
        A=A, C=ZeroMap(), z=np.array([3.0]), r=[np.zeros(1)],
        B=[B], S=[ScaledIdentityMap(1.0 / c)], L=[1.0],
    )
    r1 = solve_parallel_sum(direct, FbfConfig())
    r2 = solve_parallel_sum(inverse, FbfConfig())
    assert r1.converged and r2.converged
    assert r1.primal[0][0] == pytest.approx(r2.primal[0][0], abs=1e-6)


def test_invalid_partition_rejected():
    with pytest.raises(ParameterError):
        ParallelSumProblem(
            dim=1, dual_dims=(1,), K1=2, K2=1,
            A=ZeroOperator(), C=ZeroMap(), z=np.zeros(1), r=[np.zeros(1)],
            B=[ScaledIdentity(1.0)], S=[ZeroMap()], L=[1.0],
        )


# --- common zeros ------------------------------------------------------------

def test_common_zero_consistent_intervals():
    p = CommonZeroProblem(
        1,
        NormalCone(Box([0.0], [4.0])),
        [NormalCone(Box([1.0], [2.0])), NormalCone(Box([1.5], [3.0]))],
        [ScaledIdentity(1.0), ScaledIdentity(1.0)],
    )
    report = solve_common_zero(p, FbfConfig())
    assert report.converged
    x = report.primal[0][0]
    assert 1.5 - 1e-6 <= x <= 2.0 + 1e-6
    assert check_consistency_theorem(p, report.primal.flat(), 1e-6)
    assert not check_consistency_theorem(p, np.array([0.5]), 1e-6)


def test_common_zero_trivial_everything_zero():
    p = CommonZeroProblem(2, ZeroOperator(), [ZeroOperator()],
                          [ScaledIdentity(1.0)])
    report = solve_common_zero(p, FbfConfig())
    assert report.converged and report.trace.iterations == 1


def test_consistency_check_rejects_empty_intersection_point():
    p = CommonZeroProblem(
        1, NormalCone(Point([0.0])), [NormalCone(Point([1.0]))],
        [ScaledIdentity(1.0)],
    )
    assert not check_consistency_theorem(p, np.array([0.0]), 1e-6)
    assert not check_consistency_theorem(p, np.array([1.0]), 1e-6)


def test_common_zero_least_squares_lines():
    demo = get_demo("legendre")
    prob = demo.build()
    report = solve_common_zero(prob, FbfConfig())
    assert report.converged
    # the lines x1 = 1, x2 = 2 and x1 + x2 = 0: G = [[1.5, 0.5], [0.5, 1.5]],
    # b = (1, 2), so the least-squares point is (0.25, 1.25), which the
    # oracle reads back from the hyperplanes of the built problem
    want = np.array([0.25, 1.25])
    np.testing.assert_allclose(demo.oracle(prob), want, rtol=1e-15)
    np.testing.assert_allclose(report.primal.flat(), want, atol=1e-6)


# --- multivariate minimization ----------------------------------------------

def test_two_box_quadratic_coupling():
    demo = get_demo("twobox")
    report = solve_multivariate_min(demo.build(), FbfConfig())
    assert report.converged
    np.testing.assert_allclose(report.primal.flat(), [2.0, 1.0], atol=1e-6)
    pk, dk = report.kkt
    assert pk <= 1e-7 and dk <= 1e-7


def test_singleton_functions_pin_solution():
    sig = SpaceSig((2,), (2,))
    c = np.array([0.7, -0.3])
    p = MultivariateMinProblem(
        sig, f=[IndicatorFunction(Point(c))], h=[ZeroFunction()],
        g=[QuadraticDistance([5.0, 5.0])], ell=[None],
        z=BlockVector.zeros((2,)), r=BlockVector.zeros((2,)),
        L=BlockLinearOp([[1.0]], sig),
    )
    report = solve_multivariate_min(p, FbfConfig())
    np.testing.assert_allclose(report.primal.flat(), c, atol=1e-6)


def test_lasso_soft_threshold():
    demo = get_demo("lasso1d")
    report = solve_multivariate_min(demo.build(), FbfConfig())
    np.testing.assert_allclose(report.primal.flat(), [2.0, 0.0], atol=1e-6)


def test_objectives_at_solution_and_weak_duality():
    demo = get_demo("twobox")
    p = demo.build()
    x = BlockVector([[2.0], [1.0]])
    v = BlockVector([[1.0]])
    primal, dual = evaluate_objectives(p, x, v)
    assert primal == pytest.approx(0.5, abs=1e-9)
    assert dual == pytest.approx(-0.5, abs=1e-9)
    # feasible non-optimal point: positive gap
    primal2, _ = evaluate_objectives(p, BlockVector([[2.5], [0.5]]), v)
    assert primal2 + dual > 0.1
    # infeasible point: +inf sentinel
    primal3, _ = evaluate_objectives(p, BlockVector([[5.0], [5.0]]), v)
    assert primal3 == np.inf


# --- objectives over joined runs -------------------------------------------

def assert_agree(got, p, x, v):
    """got has the None and inf pattern of ``objectives_blockwise`` at
    (x, v), and finite values within 1e-14 relative to the size of their
    terms: a sum of terms that cancel is exact to no more than that."""
    want, sizes = objectives_blockwise(p, x, v, sizes=True)
    for g, w, size in zip(got, want, sizes):
        if g is None or w is None or not np.isfinite(w):
            assert g == w
        else:
            assert abs(g - w) <= 1e-14 * size, (g, w)


def _points(p, rng):
    """x and v on p's blocks: random, or for half of the x blocks a prox of
    f (a point of an indicator's set), and for a third of the v blocks zero
    or a subgradient of g (in the domain of g*)."""
    x = [2.0 * rng.standard_normal(d) for d in p.sig.dims_primal]
    x = [fn.prox(1.0, t) if rng.random() < 0.5 else t for fn, t in zip(p.f, x)]
    v = []
    for gk, d in zip(p.g, p.sig.dims_dual):
        t, pick = rng.standard_normal(d), rng.integers(3)
        v.append(t if pick == 0 else np.zeros(d) if pick == 1 else t - gk.prox(1.0, t))
    return BlockVector(x), BlockVector(v)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_joined_objectives_are_the_blockwise_ones(data, seed):
    try:
        p, _ = build_problem(parse_problem(data.draw(problem_files("multivar_min"))))
    except ParameterError:
        assume(False)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x, v = _points(p, rng)
        assert_agree(evaluate_objectives(p, x, v), p, x, v)


def test_joined_objectives_at_the_demo_solutions():
    for name in DEMO_NAMES:
        pf = parse_problem(get_demo(name).text)
        if pf.kind == "multivar_min":
            p, solver = build_problem(pf)
            report = solver(p, make_config(pf.config, None))
            x, v = report.primal, report.dual
            assert_agree(evaluate_objectives(p, x, v), p, x, v)


def _scalar_problem(f, h, g, dims_primal, dims_dual, z=0.0, r=0.0, ell=None):
    """A MultivariateMinProblem with a zero coupling and constant z and r,
    whose blocks are views of their flat arrays."""
    sig = SpaceSig(dims_primal, dims_dual)
    return MultivariateMinProblem(
        sig, f=f, h=h, g=g, ell=ell or [None] * sig.K,
        z=BlockVector.wrap(np.full(sum(sig.dims_primal), float(z)), sig.dims_primal),
        r=BlockVector.wrap(np.full(sum(sig.dims_dual), float(r)), sig.dims_dual),
        L=BlockLinearOp({}, sig))


def test_a_joined_zero_conjugate_tests_each_block():
    # v = 0, so (f + h)* is read at u = z: each block's norm is at most 1e-6,
    # the joined vector's sqrt(5) * 6e-7 is not
    dims = (2, 1, 2)
    p = _scalar_problem([ZeroFunction()] * 3, [ZeroFunction()] * 3, [L1Norm(1.0)],
                        dims, (1,), z=6e-7)
    assert [len(runs) for runs in p._joined] == [1, 1, 1]
    x, v = BlockVector.zeros(dims), BlockVector.zeros((1,))
    assert np.linalg.norm(p.z.flat()) > 1e-6
    assert evaluate_objectives(p, x, v) == objectives_blockwise(p, x, v) == (0.0, 0.0)
    # one block over the edge is +inf, joined or not
    p.z.flat()[2] = 1.1e-6
    assert evaluate_objectives(p, x, v) == objectives_blockwise(p, x, v) == (0.0, np.inf)


def test_a_joined_indicator_tests_each_block():
    # x = 0, so g is read at -r: each block lies within the slack of the box,
    # the joined vector does not
    dims = (2, 1, 2)
    boxes = [IndicatorFunction(Box(np.zeros(d), np.ones(d))) for d in dims]
    p = _scalar_problem([ZeroFunction()], [ZeroFunction()], boxes, (1,), dims, r=6e-7)
    assert [len(runs) for runs in p._joined] == [1, 1, 1]
    x, v = BlockVector.zeros((1,)), BlockVector.zeros(dims)
    assert not Box(np.zeros(5), np.ones(5)).contains(-p.r.flat())
    assert evaluate_objectives(p, x, v) == objectives_blockwise(p, x, v) == (0.0, 0.0)
    p.r.flat()[4] = 1.1e-6
    assert evaluate_objectives(p, x, v) == objectives_blockwise(p, x, v) == (np.inf, 0.0)


def test_a_run_of_squared_norm_h_keeps_its_dual():
    # a joined SquaredNorm has one omega per coordinate, so (f + h)* is read
    # block by block: scalar omegas evaluate, per-coordinate ones raise
    dims, rng = (1, 2, 1), np.random.default_rng(3)
    omegas = [0.5, 2.0, 1.0]
    p = _scalar_problem([L1Norm(1.0)] * 3, [SquaredNorm(w) for w in omegas], [ZeroFunction()],
                        dims, (1,), z=0.0)
    assert [len(runs) for runs in p._joined] == [1, 1, 1]
    x = BlockVector([rng.standard_normal(d) for d in dims])
    p.z.flat()[:] = 3.0 * rng.standard_normal(4)
    v = BlockVector.zeros((1,))
    got = evaluate_objectives(p, x, v)
    want = sum(conj_l1_plus_sqnorm(1.0, w, zi) for w, zi in zip(omegas, p.z.blocks))
    assert got[1] == pytest.approx(want, rel=1e-14)
    assert_agree(got, p, x, v)
    q = _scalar_problem([L1Norm(1.0)] * 3, [SquaredNorm(0.5), SquaredNorm([0.5, 2.0]),
                                            SquaredNorm(1.0)], [ZeroFunction()], dims, (1,))
    q.z.flat()[:] = p.z.flat()
    assert evaluate_objectives(q, x, v)[1] is None is objectives_blockwise(q, x, v)[1]
    with pytest.raises(EvaluationError):
        dual_objective(q, v)


def _tv_chain_text(m):
    """A 1-D total-variation problem file of m scalar blocks, as the
    benchmark's tv_chain writes it."""
    y = np.repeat([0.0, 2.0, -1.0, 1.0], m // 4)
    lines = ["problem multivar_min", "primal_dims " + " 1" * m, "dual_dims " + " 1" * (m - 1)]
    lines += [f"op f {i + 1} sqdist a={float(y[i])!r}" for i in range(m)]
    lines += [f"op h {i + 1} zero" for i in range(m)]
    lines += [f"op g {k + 1} l1 weight=0.5" for k in range(m - 1)]
    lines += [f"op ell {k + 1} none" for k in range(m - 1)]
    for k in range(m - 1):
        lines += [f"entry {k + 1} {k + 1} scale 1", f"entry {k + 1} {k + 2} scale -1"]
    lines += ["vec z" + " 0" * m, "vec r" + " 0" * (m - 1)]
    return "\n".join(lines) + "\n"


def test_objectives_call_each_function_once_per_run(monkeypatch):
    p, _ = build_problem(parse_problem(_tv_chain_text(64)))
    rng = np.random.default_rng(0)
    x = BlockVector.wrap(rng.standard_normal(64), p.sig.dims_primal)
    v = BlockVector.wrap(rng.uniform(-0.5, 0.5, 63), p.sig.dims_dual)
    calls = Counter()
    for cls in (QuadraticDistance, ZeroFunction, L1Norm):
        for name in ("__call__", "conjugate"):
            def counted(self, *args, _fn=getattr(cls, name), _key=(cls.__name__, name)):
                calls[_key] += 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted)
    got = evaluate_objectives(p, x, v)
    # f, h and g are one run each; h is read at x and, in the dual, at 0
    assert calls == {("QuadraticDistance", "__call__"): 1, ("ZeroFunction", "__call__"): 2,
                     ("L1Norm", "__call__"): 1, ("QuadraticDistance", "conjugate"): 1,
                     ("L1Norm", "conjugate"): 1}
    calls.clear()
    assert_agree(got, p, x, v)
    assert calls == {("QuadraticDistance", "__call__"): 64, ("ZeroFunction", "__call__"): 128,
                     ("L1Norm", "__call__"): 63, ("QuadraticDistance", "conjugate"): 64,
                     ("L1Norm", "conjugate"): 63}


def test_qualification_cases():
    sig = SpaceSig((1, 1), (1,))
    L = BlockLinearOp([[1.0, -1.0]], sig)
    zeros = (BlockVector.zeros((1, 1)), BlockVector.zeros((1,)))
    boxes = [IndicatorFunction(Box([0.0], [1.0])),
             IndicatorFunction(Box([2.0], [3.0]))]
    mk = lambda f, g, grid: MultivariateMinProblem(
        sig, f=f, h=[ZeroFunction(), ZeroFunction()], g=[g], ell=[None],
        z=zeros[0], r=zeros[1], L=grid,
    )
    assert check_qualification(
        mk(boxes, QuadraticDistance([0.0]), L)
    ) == "holds_by_iv"
    assert check_qualification(
        mk([L1Norm(1.0), L1Norm(1.0)], IndicatorFunction(Box([0.0], [1.0])), L)
    ) == "holds_by_iii"
    singular = BlockLinearOp([[None, None]], sig)
    assert check_qualification(
        mk(boxes, IndicatorFunction(Box([0.0], [1.0])), singular)
    ) == "unknown"


def test_qualification_needs_full_row_rank():
    # a 2 x 1 row map cannot be onto R^2, however real-valued f is
    sig = SpaceSig((1,), (2,))
    p = MultivariateMinProblem(
        sig, f=[L1Norm(1.0)], h=[ZeroFunction()],
        g=[IndicatorFunction(Box([0.0, 0.0], [1.0, 1.0]))], ell=[None],
        z=BlockVector.zeros((1,)), r=BlockVector.zeros((2,)),
        L=BlockLinearOp([[np.array([[1.0], [2.0]])]], sig),
    )
    assert check_qualification(p) == "unknown"


def test_kkt_transfer_from_minimization():
    for name in ("twobox", "lasso1d"):
        report = solve_multivariate_min(get_demo(name).build(), FbfConfig())
        pk, dk = report.kkt
        assert pk <= 1e-7 and dk <= 1e-7


# --- univariate minimization and feasibility ---------------------------------

def test_univariate_degenerate_matches_multivariate():
    # K1 = K2 = 0 with a strongly convex coupling equals the m = 1
    # multivariate formulation of the same objective
    sig = SpaceSig((2,), (2,))
    f = L1Norm(0.5)
    g = QuadraticDistance([2.0, -1.0])
    om = 0.8
    uni = UnivariateMinProblem(
        dim=2, dual_dims=(2,), K1=0, K2=0,
        f=f, h=ZeroFunction(), g=[g], phi=[SquaredNorm(om)],
        z=np.zeros(2), r=[np.zeros(2)], L=[1.0],
    )
    multi = MultivariateMinProblem(
        sig, f=[f], h=[ZeroFunction()], g=[g], ell=[SquaredNorm(om)],
        z=BlockVector.zeros((2,)), r=BlockVector.zeros((2,)),
        L=BlockLinearOp([[1.0]], sig),
    )
    r1 = solve_parallel_sum(uni, FbfConfig())
    r2 = solve_multivariate_min(multi, FbfConfig())
    assert r1.converged and r2.converged
    np.testing.assert_allclose(r1.primal.flat(), r2.primal.flat(), atol=1e-6)


def test_an_omega_per_coordinate_couples_as_ell_and_as_phi():
    # g the indicator of {c} makes g infconv omega||.||^2 the weighted
    # distance to c: min ||x - a||^2 / 2 + sum_j w_j (x_j - c_j)^2 is
    # attained at x_j = (a_j + 2 w_j c_j) / (1 + 2 w_j)
    a, c, w = np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([0.25, 2.0])
    x = (a + 2 * w * c) / (1 + 2 * w)
    value = 0.5 * (x - a) @ (x - a) + w @ (x - c) ** 2
    sig = SpaceSig((2,), (2,))
    multi = MultivariateMinProblem(
        sig, f=[QuadraticDistance(a)], h=[ZeroFunction()], g=[IndicatorFunction(Point(c))],
        ell=[SquaredNorm(w)], z=BlockVector.zeros((2,)), r=BlockVector.zeros((2,)),
        L=BlockLinearOp([[1.0]], sig),
    )
    report = solve_multivariate_min(multi, FbfConfig())
    assert report.converged
    np.testing.assert_allclose(report.primal.flat(), x, atol=1e-6)
    # the primal inner minimizer has no closed form; the dual value does
    assert evaluate_objectives(multi, report.primal, report.dual) == (
        None, pytest.approx(-value, abs=1e-6))
    uni = UnivariateMinProblem(
        dim=2, dual_dims=(2,), K1=0, K2=0,
        f=QuadraticDistance(a), h=ZeroFunction(), g=[IndicatorFunction(Point(c))],
        phi=[SquaredNorm(w)], z=np.zeros(2), r=[np.zeros(2)], L=[1.0],
    )
    report = solve_parallel_sum(uni, FbfConfig())
    assert report.converged
    np.testing.assert_allclose(report.primal.flat(), x, atol=1e-6)


def test_an_omega_whose_gradient_overflows_is_refused_by_squared_norm():
    # 2 omega scales SquaredNorm's gradient and 0.5 / omega its conjugate's,
    # which an ell or a strongly convex phi lifts to: an omega, or one of its
    # coordinates, that overflows either fails in SquaredNorm, not at solve
    # time in a map the caller never built
    for omega in (1e-320, 1e308, [1.0, 1e-320], [1e308, 1.0]):
        with pytest.raises(ParameterError, match="omega needs 2 omega and 0.5 / omega finite"):
            SquaredNorm(omega)
    # the edges of the range lift to finite constants
    for omega in ([2.8e-309, 1.0], [1.0, 8.9e307]):
        uni = UnivariateMinProblem(
            dim=2, dual_dims=(2,), K1=0, K2=0, f=ZeroFunction(), h=SquaredNorm(omega),
            g=[ZeroFunction()], phi=[SquaredNorm(omega)], z=np.zeros(2), r=[np.zeros(2)],
            L=[1.0],
        )
        assert compute_beta(uni._system) < np.inf


def test_univariate_singleton_objective():
    uni = UnivariateMinProblem(
        dim=1, dual_dims=(1,), K1=1, K2=1,
        f=IndicatorFunction(Point([1.2])), h=ZeroFunction(),
        g=[QuadraticDistance([0.0])], phi=[IndicatorFunction(Point([0.0]))],
        z=np.zeros(1), r=[np.zeros(1)], L=[1.0],
    )
    report = solve_parallel_sum(uni, FbfConfig())
    assert report.primal[0][0] == pytest.approx(1.2, abs=1e-6)


def test_feasibility_box_and_line():
    demo = get_demo("boxhalf")
    report = solve_parallel_sum(demo.build(), FbfConfig())
    assert report.converged
    np.testing.assert_allclose(report.primal.flat(), [1.0, 1.0], atol=1e-5)


def test_feasibility_consistent_sets_reach_zero_objective():
    p = FeasibilityRelaxation(
        dim=2,
        sets=[Box([0.0, 0.0], [1.0, 1.0]), Box([0.5, 0.0], [2.0, 2.0])],
        phi=[IndicatorFunction(Point([0.0, 0.0])), SquaredNorm(1.0)],
        L=[1.0, 1.0],
    )
    report = solve_parallel_sum(p, FbfConfig())
    x = report.primal.flat()
    assert relaxation_objective(p, x) <= 1e-10


def test_feasibility_matches_common_zero_least_squares():
    # quadratic penalties on hyperplanes reproduce the relaxed common-zero
    # least-squares formulation on a shared instance
    lines = [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 2.0),
             (np.array([1.0, 1.0]) / np.sqrt(2.0), 0.0)]
    feas = FeasibilityRelaxation(
        dim=2,
        sets=[Hyperplane(u, rho) for u, rho in lines],
        phi=[SquaredNorm(0.5)] * 3,
        L=[1.0, 1.0, 1.0],
    )
    cz = CommonZeroProblem(
        2, ZeroOperator(),
        [NormalCone(Hyperplane(u, rho)) for u, rho in lines],
        [ScaledIdentity(1.0)] * 3,
    )
    r1 = solve_parallel_sum(feas, FbfConfig())
    r2 = solve_common_zero(cz, FbfConfig())
    np.testing.assert_allclose(r1.primal.flat(), r2.primal.flat(), atol=1e-6)


def test_feasibility_dominates_random_feasible_probes(rng):
    p = get_demo("boxhalf").build()
    report = solve_parallel_sum(p, FbfConfig())
    best = relaxation_objective(p, report.primal.flat())
    for _ in range(100):
        probe = rng.uniform(0.0, 1.0, 2)  # anywhere in the hard box
        assert best <= relaxation_objective(p, probe) + 1e-9


def test_feasibility_matches_projected_gradient(rng):
    p = get_demo("boxhalf").build()
    report = solve_parallel_sum(p, FbfConfig())
    oracle = projected_gradient_oracle(p)
    np.testing.assert_allclose(report.primal.flat(), oracle, atol=1e-5)


def test_feasibility_rejects_unvetted_penalty():
    with pytest.raises(ParameterError):
        FeasibilityRelaxation(
            dim=1, sets=[Box([0.0], [1.0])], phi=[L1Norm(1.0)], L=[1.0]
        )


def test_an_omega_per_coordinate_weighs_a_feasibility_penalty():
    # sum_j w_j dist_j^2 to the box [0, 1]^2 plus sum_j v_j (x_j - c_j)^2:
    # per coordinate the minimizer weighs the nearest face against c
    w, v, c = np.array([0.5, 2.0]), np.array([1.5, 0.25]), np.array([3.0, -2.0])
    p = FeasibilityRelaxation(2, [Box([0.0, 0.0], [1.0, 1.0]), Point(c)],
                              [SquaredNorm(w), SquaredNorm(v)], [1.0, 1.0])
    for x in ([0.5, 0.5], [2.0, -1.0], [-1.0, 4.0]):
        x = np.array(x)
        d = x - np.clip(x, 0.0, 1.0)
        assert relaxation_objective(p, x) == pytest.approx(w @ d ** 2 + v @ (x - c) ** 2,
                                                           rel=1e-14)
    report = solve_parallel_sum(p, FbfConfig())
    assert report.converged
    want = (w * np.array([1.0, 0.0]) + v * c) / (w + v)
    np.testing.assert_allclose(report.primal.flat(), want, atol=1e-6)


@pytest.mark.parametrize("cset", [Hyperplane([1.0, 1.0], 0.0), Ball([0.0, 0.0], 0.5)],
                         ids=["hyperplane", "ball"])
def test_an_omega_per_coordinate_on_a_set_that_is_not_separable_has_no_objective(cset):
    # the projection minimizes only the unweighted distance: on the line
    # y1 + y2 = 0, min_y (1 - y1)^2 + 100 (1 - y2)^2 is about 3.96, while the
    # penalty at the projection (0, 0) is 101
    p = FeasibilityRelaxation(2, [cset], [SquaredNorm([1.0, 100.0])], [1.0])
    with pytest.raises(EvaluationError):
        relaxation_objective(p, np.ones(2))
    # a scalar omega weighs every direction alike, so the projection stays optimal
    p = FeasibilityRelaxation(2, [cset], [SquaredNorm(1.0)], [1.0])
    want = 2.0 if isinstance(cset, Hyperplane) else (np.sqrt(2.0) - 0.5) ** 2
    assert relaxation_objective(p, np.ones(2)) == pytest.approx(want, rel=1e-14)


def test_relaxation_objective_hard_violation_is_infinite():
    p = get_demo("boxhalf").build()
    assert relaxation_objective(p, np.array([5.0, 5.0])) == np.inf


def _one_block_min_problem(text_ops, u):
    """min f(x) + h(x) - <x, u> with a zero coupling, read from a problem
    file so that h is the catalog's smooth function; its dual objective at
    v = 0 is (f + h)*(u)."""
    d = u.size
    text = (f"problem multivar_min\nprimal_dims {d}\ndual_dims 1\n{text_ops}"
            "op g 1 zero\nop ell 1 none\n"
            "vec z " + " ".join(repr(float(t)) for t in u) + "\nvec r 0\n")
    return build_problem(parse_problem(text))[0]


def test_dual_objective_exact_for_quadratic_h():
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = 3.0 * rng.standard_normal(3)
        p = _one_block_min_problem(
            "op f 1 indicator_box lo=-1,0,0.5 hi=1,2,0.5\n"
            "op h 1 sqdist a=0.3,-2,1\n", u)
        want = conj_box_plus_sqdist(np.array([-1, 0, 0.5]), np.array([1, 2, 0.5]),
                                    np.array([0.3, -2, 1]), u)
        assert dual_objective(p, BlockVector.zeros((1,))) == pytest.approx(
            want, rel=1e-14, abs=0)
        p = _one_block_min_problem(
            "op f 1 l1 weight=0.7\nop h 1 sqnorm omega=1.5\n", u)
        assert dual_objective(p, BlockVector.zeros((1,))) == pytest.approx(
            conj_l1_plus_sqnorm(0.7, 1.5, u), rel=1e-14, abs=0)


def test_sqdist_h_builds_in_linear_time():
    # grad of ||x - a||^2/2 is x - a: a shifted identity, no n x n matrix
    t0 = time.process_time()
    p = _one_block_min_problem("op f 1 zero\nop h 1 sqdist a=1\n", np.zeros(2000))
    assert time.process_time() - t0 < 0.5
    grad = p.h[0].gradient
    assert grad.lipschitz == 1.0
    assert np.array_equal(grad(np.full(2000, 3.0)), np.full(2000, 2.0))


class _Quartic(ConvexFunction):
    """sum_j x_j^4, whose gradient is not c Id + b."""

    gradient = LipschitzOperator(lambda x: 4 * x ** 3, 1.0)

    def __call__(self, x):
        return float(np.sum(x ** 4))


def test_dual_objective_needs_quadratic_h():
    p = _one_block_min_problem("op f 1 zero\nop h 1 zero\n", np.zeros(2))
    p.h[0] = _Quartic()
    with pytest.raises(EvaluationError):
        dual_objective(p, BlockVector.zeros((1,)))
    # the primal objective does not depend on the dual evaluator
    assert primal_objective(p, BlockVector([np.ones(2)])) == pytest.approx(2.0)



def test_evaluate_objectives_gives_none_for_a_side_without_evaluator():
    x, v = BlockVector([np.ones(2)]), BlockVector.zeros((1,))
    p = _scalar_problem([ZeroFunction()], [_Quartic()], [ZeroFunction()], (2,), (1,))
    assert evaluate_objectives(p, x, v) == (pytest.approx(2.0), None)
    # an f with no value evaluator either
    p = _scalar_problem([ConvexFunction()], [_Quartic()], [ZeroFunction()], (2,), (1,))
    assert evaluate_objectives(p, x, v) == (None, None)


def test_evaluate_objectives_finds_the_runs_of_a_problem_once(monkeypatch):
    import pdsplit.reductions as red

    found, runs = [], red.runs
    monkeypatch.setattr(red, "runs", lambda *args: found.append(1) or runs(*args))
    p, _ = build_problem(parse_problem(get_demo("lasso1d").text))
    x, v = BlockVector.zeros(p.sig.dims_primal), BlockVector.zeros(p.sig.dims_dual)
    first = evaluate_objectives(p, x, v)
    assert evaluate_objectives(p, x, v) == first
    assert len(found) == 3                      # one for each of f, h and g


def test_relaxation_objective_with_a_zero_coupling():
    # L_2 = 0 maps every x to 0, at distance 3/sqrt(2) from the line
    p = get_demo("boxhalf").build()
    p = FeasibilityRelaxation(p.dim, p.sets, p.phi, [1.0, None])
    assert relaxation_objective(p, [1.0, 1.0]) == pytest.approx(4.5, rel=1e-15)


def _psum(**changes):
    """A parallel sum on dim 2 with dual blocks (2, 1), one coupling of
    each access kind but the inverse one, every member fitting its block."""
    args = dict(dim=2, dual_dims=(2, 1), K1=1, K2=2, A=ZeroOperator(), C=ZeroMap(),
                z=np.zeros(2), r=[np.zeros(2), np.zeros(1)], B=[ZeroOperator()] * 2,
                S=[ScaledIdentity(1.0), ZeroMap()], L=[1.0, np.ones((1, 2))])
    return ParallelSumProblem(**{**args, **changes})


def _univariate(**changes):
    args = dict(dim=2, dual_dims=(2, 1), K1=1, K2=1, f=ZeroFunction(), h=ZeroFunction(),
                g=[ZeroFunction()] * 2, phi=[ZeroFunction(), SquaredNorm(1.0)],
                z=np.zeros(2), r=[np.zeros(2), np.zeros(1)], L=[1.0, np.ones((1, 2))])
    return UnivariateMinProblem(**{**args, **changes})


def _feasibility(**changes):
    args = dict(dim=2, sets=[Box([0.0, 0.0], [1.0, 1.0]), Point([0.5])],
                phi=[SquaredNorm(1.0)] * 2, L=[1.0, np.ones((1, 2))])
    return FeasibilityRelaxation(**{**args, **changes})


def _common_zero_solve(dim, S):
    return solve_common_zero(CommonZeroProblem(dim, ZeroOperator(), [ZeroOperator()], [S]),
                             FbfConfig())


_SIG = SpaceSig((1, 1), (1,))


@pytest.mark.parametrize("make, message", [
    (lambda: ParallelSumProblem(1, (1,), 1, 1, ZeroOperator(), ZeroMap(), [0.0], [[0.0]],
                                [], [ScaledIdentity(1.0)], [1.0]),
     "need K entries in each of r, B, S, L"),
    (lambda: ParallelSumProblem(2, (2,), 0, 0, ZeroOperator(), ZeroMap(), [0.0] * 3,
                                [[0.0] * 2], [ScaledIdentity(1.0)], [ScaledIdentity(1.0)], [1.0]),
     "z has 3 entries for a block of dimension 2"),
    (lambda: ParallelSumProblem(1, (1, 2), 0, 0, ZeroOperator(), ZeroMap(), [0.0],
                                [[0.0], [0.0]], [ScaledIdentity(1.0)] * 2,
                                [ScaledIdentity(1.0)] * 2, [1.0, None]),
     "r 2 has 1 entries for a block of dimension 2"),
    (lambda: CommonZeroProblem(1, ZeroOperator(), [], []), "need K >= 1 operators in B and S"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()], [ZeroFunction()] * 2,
                                    [ZeroFunction()], [None], None, None, None),
     "need 2 functions in f and h"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()] * 2, [ZeroFunction()] * 2,
                                    [ZeroFunction()], [], None, None, None),
     "need 1 functions in g and ell"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()] * 2, [ZeroFunction()] * 2,
                                    [ZeroFunction()], [L1Norm(1.0)], None, None, None),
     "ell entries must be None or SquaredNorm couplings"),
    (lambda: UnivariateMinProblem(1, (1,), 1, 0, ZeroFunction(), ZeroFunction(),
                                  [ZeroFunction()], [L1Norm(1.0)], None, None, None),
     "invalid partition 0 <= 1 <= 0 <= 1"),
    (lambda: UnivariateMinProblem(1, (1,), 0, 0, ZeroFunction(), ZeroFunction(),
                                  [ZeroFunction()], [L1Norm(1.0)], None, None, None),
     "strongly convex phi entries must be SquaredNorm"),
    (lambda: UnivariateMinProblem(1, (1, 1), 0, 0, ZeroFunction(), ZeroFunction(),
                                  [ZeroFunction()] * 2, [SquaredNorm(1.0)], None,
                                  [[0.0]] * 2, [1.0] * 2),
     "need K entries in each of g, phi, r, L"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()] * 2, [ZeroFunction(), L1Norm(1.0)],
                                    [ZeroFunction()], [None], None, None, None),
     "h 2 is L1Norm, which has no gradient"),
    (lambda: MultivariateMinProblem(SpaceSig((3, 3), (1,)), [QuadraticDistance([1.0, 2.0])] * 2,
                                    [ZeroFunction()] * 2, [ZeroFunction()], [None],
                                    None, None, None),
     "f 1: a has 2 entries for a block of dimension 3"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()] * 2, [ZeroFunction()] * 2,
                                    [L1Norm([1.0, 2.0])], [None], None, None, None),
     "g 1: weight has 2 entries for a block of dimension 1"),
    (lambda: UnivariateMinProblem(1, (1,), 1, 1, ZeroFunction(), L1Norm(1.0),
                                  [ZeroFunction()], [ZeroFunction()], None, [[0.0]], [1.0]),
     "h is L1Norm, which has no gradient"),
    (lambda: UnivariateMinProblem(1, (1, 1), 0, 2, ZeroFunction(), ZeroFunction(),
                                  [ZeroFunction()] * 2, [ZeroFunction(), L1Norm(1.0)], None,
                                  [[0.0]] * 2, [1.0] * 2),
     "phi 2 is L1Norm, which has no gradient"),
    (lambda: UnivariateMinProblem(2, (2,), 0, 0, ZeroFunction(), ZeroFunction(),
                                  [ZeroFunction()], [SquaredNorm(1.0)], [0.0] * 3,
                                  [[0.0] * 2], [1.0]),
     "z has 3 entries for a block of dimension 2"),
    (lambda: UnivariateMinProblem(1, (1, 2), 0, 0, ZeroFunction(), ZeroFunction(),
                                  [ZeroFunction()] * 2, [SquaredNorm(1.0)] * 2, [0.0],
                                  [[0.0], [0.0]], [1.0, None]),
     "r 2 has 1 entries for a block of dimension 2"),
    (lambda: FeasibilityRelaxation(1, [], [], []),
     "need matching nonempty sets, phi, and L lists"),
    (lambda: _psum(A=NormalCone(Box(np.zeros(3), np.ones(3)))),
     "A: lo has 3 entries for a block of dimension 2"),
    (lambda: _psum(C=ScaledIdentityMap(np.ones(3))),
     "C: c has 3 entries for a block of dimension 2"),
    (lambda: _psum(B=[ZeroOperator(), NormalCone(Point([1.0, 2.0]))]),
     "B 2: c has 2 entries for a block of dimension 1"),
    (lambda: _psum(S=[ScaledIdentity([1.0, 2.0, 3.0]), ZeroMap()]),
     "S 1: c has 3 entries for a block of dimension 2"),
    (lambda: _psum(L=[1.0, np.ones((1, 3))]), "L 2 is 1 x 3 but its block is 1 x 2"),
    (lambda: _psum(L=[1.0, 2.0]), "L 2 is a multiple of the identity but its block is 1 x 2"),
    (lambda: _univariate(f=L1Norm([1.0, 2.0, 3.0])),
     "f: weight has 3 entries for a block of dimension 2"),
    (lambda: _univariate(h=QuadraticDistance([1.0, 2.0, 3.0])),
     "h: a has 3 entries for a block of dimension 2"),
    (lambda: _univariate(g=[ZeroFunction(), QuadraticDistance([1.0, 2.0])]),
     "g 2: a has 2 entries for a block of dimension 1"),
    (lambda: _univariate(phi=[ZeroFunction(), SquaredNorm([1.0, 2.0])]),
     "phi 2: omega has 2 entries for a block of dimension 1"),
    (lambda: _feasibility(sets=[Box([0.0, 0.0], [1.0, 1.0]), Point([0.5, 0.5])]),
     "set 2: c has 2 entries for a block of dimension 1"),
    (lambda: _feasibility(phi=[IndicatorFunction(Point(np.zeros(3))), SquaredNorm(1.0)]),
     "phi 1: c has 3 entries for a block of dimension 2"),
    (lambda: _feasibility(L=[np.ones((2, 3)), np.ones((1, 2))]),
     "L 1 is 2 x 3 but its block is 2 x 2"),
    (lambda: _psum(L=[1.0, np.ones(2)]), "L 2: dense entries must be 2-D matrices"),
    (lambda: _univariate(L=[1.0, np.ones((1, 2)) * 1j]),
     "L 2: entries must be real numbers or matrices, not complex128"),
    (lambda: FeasibilityRelaxation(2, [Box([0.0, 0.0], [1.0, 1.0])], [SquaredNorm(1.0)],
                                   [np.ones(2)]),
     "L 1: dense entries must be 2-D matrices"),
    (lambda: _feasibility(sets=[Box([0.0, 0.0], [1.0]), Point([0.5])]),
     "box needs lo and hi of one shape"),
    (lambda: _common_zero_solve(2, ScaledIdentity([1.0, 2.0, 3.0])),
     "S 1: c has 3 entries for a block of dimension 2"),
    (lambda: _psum(K1=1.5), "K1 must be an integer >= 0, got 1.5"),
    (lambda: _psum(dim=0), "dim must be an integer >= 1, got 0"),
    (lambda: _psum(dual_dims=(2.5, 1)), "each dual dimension must be an integer >= 1, got 2.5"),
    (lambda: _univariate(K2="1"), "K2 must be an integer >= 0, got '1'"),
    (lambda: _feasibility(dim=2.5), "dim must be an integer >= 1, got 2.5"),
    (lambda: CommonZeroProblem(1.5, ZeroOperator(), [ZeroOperator()], [ScaledIdentity(1.0)]),
     "dim must be an integer >= 1, got 1.5"),
    (lambda: ParallelSumProblem(1, (1,), 1, 1, ZeroOperator(), ZeroMap(), [np.inf], [[0.0]],
                                [ScaledIdentity(1.0)], [ScaledIdentity(1.0)], [1.0]),
     "the shift z must be finite"),
    (lambda: _psum(r=[np.zeros(2), [np.nan]]), "the shift r 2 must be finite"),
    (lambda: _fitting_multivar(L=BlockLinearOp([[1.0]], SpaceSig((1,), (1,)))),
     "coupling grid signature does not match the problem"),
    (lambda: _fitting_multivar(ell=[SquaredNorm([1.0, 2.0, 3.0])]),
     "ell 1: omega has 3 entries for a block of dimension 1"),
    (lambda: _fitting_multivar(f=[None]), "f 1: NoneType is not a ConvexFunction"),
    (lambda: _fitting_multivar(g=[None]), "g 1: NoneType is not a ConvexFunction"),
    (lambda: _psum(A=None), "A: NoneType is not a MonotoneOperator"),
    (lambda: _psum(C=ScaledIdentity(1.0)), "C: ScaledIdentity is not a LipschitzOperator"),
    (lambda: _psum(B=[ZeroOperator(), None]), "B 2: NoneType is not a MonotoneOperator"),
    (lambda: _psum(S=[None, ZeroMap()]), "S 1: NoneType is not a MonotoneOperator"),
    (lambda: _psum(S=[ScaledIdentity(1.0), ScaledIdentity(1.0)]),
     "S 2: ScaledIdentity is not a LipschitzOperator"),
    (lambda: _psum(K1=0, K2=0, S=[None, ZeroMap()]), "S 1: NoneType is not a LipschitzOperator"),
    (lambda: _univariate(f=None), "f: NoneType is not a ConvexFunction"),
    (lambda: _univariate(g=[ZeroFunction(), None]), "g 2: NoneType is not a ConvexFunction"),
    (lambda: _univariate(phi=[None, SquaredNorm(1.0)]), "phi 1: NoneType is not a ConvexFunction"),
    (lambda: _common_zero_solve(1, None), "S 1: NoneType is not a MonotoneOperator"),
], ids=["psum-count", "psum-z-fit", "psum-r-fit", "common-zero-count", "multivar-f",
        "multivar-g", "multivar-ell",
        "univar-partition", "univar-phi", "univar-count", "multivar-h-gradient",
        "multivar-f-fit", "multivar-g-fit",
        "univar-h-gradient", "univar-phi-gradient", "univar-z-fit", "univar-r-fit",
        "feasibility-count", "psum-A-fit", "psum-C-fit", "psum-B-fit", "psum-S-fit",
        "psum-L-fit", "psum-L-scalar-fit", "univar-f-fit", "univar-h-fit", "univar-g-fit",
        "univar-phi-fit", "feasibility-set-fit", "feasibility-phi-fit", "feasibility-L-fit",
        "psum-L-vector", "univar-L-complex", "feasibility-L-vector", "feasibility-box-shapes",
        "common-zero-S-fit-at-solve", "psum-K1-float", "psum-dim-zero", "psum-dual-dim-float",
        "univar-K2-string", "feasibility-dim-float", "common-zero-dim-float",
        "psum-z-finite", "psum-r-finite", "multivar-L-fit", "multivar-ell-fit",
        "multivar-f-role", "multivar-g-role", "psum-A-role", "psum-C-role", "psum-B-role",
        "psum-S-resolvent-role", "psum-S-forward-role", "psum-S-inverse-role", "univar-f-role",
        "univar-g-role", "univar-phi-role", "common-zero-S-role-at-solve"])
def test_a_malformed_front_end_problem_is_rejected(make, message):
    # a front end is checked when it is built, a common-zero problem when it
    # lifts at its first solve; a misfit is named by the caller's role, not
    # by the lifted system's, and a size is never truncated to an integer
    with pytest.raises(ParameterError) as exc:
        make()
    assert str(exc.value) == message

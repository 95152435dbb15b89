import time

import numpy as np
import pytest

from pdsplit import (
    BlockLinearOp,
    BlockVector,
    Box,
    CommonZeroProblem,
    FbfConfig,
    FeasibilityRelaxation,
    Halfspace,
    Hyperplane,
    IndicatorFunction,
    L1Norm,
    MultivariateMinProblem,
    NormalCone,
    ParallelSumProblem,
    ParameterError,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    ScaledIdentityMap,
    SpaceSig,
    SquaredNorm,
    UnivariateMinProblem,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
    check_consistency_theorem,
    check_qualification,
    compute_beta,
    dual_objective,
    evaluate_objectives,
    lift_parallel_sum,
    primal_objective,
    relaxation_objective,
    solve_common_zero,
    solve_feasibility_relaxation,
    solve_multivariate_min,
    solve_parallel_sum,
    solve_univariate_min,
    zero_smooth,
)
from pdsplit.demos import get_demo, legendre_normal_equations
from pdsplit.probfile import build_problem, parse_problem
from conftest import random_parallel_sum
from oracles import (
    conj_box_plus_sqdist,
    conj_l1_plus_sqnorm,
    dense_coupling,
    parallel_sum_iterates,
    projected_gradient_oracle,
    resolvent_bisection,
)


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


def test_lifting_soundness_iterates_match(rng):
    for _ in range(5):
        p = random_parallel_sum(rng)
        iterates = []
        cfg = FbfConfig(max_iters=50, residual_tol=0.0,
                        on_iteration=lambda n, w, p: iterates.append(w.copy()))
        rep = solve_parallel_sum(p, cfg)
        iterates.append(rep.trace.w)
        gamma = (1.0 - cfg.epsilon) / compute_beta(lift_parallel_sum(p))
        ref = parallel_sum_iterates(p, gamma, 50)
        gaps = [np.linalg.norm(a - b) for a, b in zip(iterates, ref)]
        assert len(gaps) == 51 and max(gaps) <= 1e-12


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
    want = legendre_normal_equations(prob.lines)
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
        sig, f=[IndicatorFunction(Point(c))], h=[zero_smooth()],
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


def test_qualification_cases():
    sig = SpaceSig((1, 1), (1,))
    L = BlockLinearOp([[1.0, -1.0]], sig)
    zeros = (BlockVector.zeros((1, 1)), BlockVector.zeros((1,)))
    boxes = [IndicatorFunction(Box([0.0], [1.0])),
             IndicatorFunction(Box([2.0], [3.0]))]
    mk = lambda f, g, grid: MultivariateMinProblem(
        sig, f=f, h=[zero_smooth(), zero_smooth()], g=[g], ell=[None],
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
        sig, f=[L1Norm(1.0)], h=[zero_smooth()],
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
        f=f, h=zero_smooth(), g=[g], phi=[SquaredNorm(om)],
        z=np.zeros(2), r=[np.zeros(2)], L=[1.0],
    )
    multi = MultivariateMinProblem(
        sig, f=[f], h=[zero_smooth()], g=[g], ell=[SquaredNorm(om)],
        z=BlockVector.zeros((2,)), r=BlockVector.zeros((2,)),
        L=BlockLinearOp([[1.0]], sig),
    )
    r1 = solve_univariate_min(uni, FbfConfig())
    r2 = solve_multivariate_min(multi, FbfConfig())
    assert r1.converged and r2.converged
    np.testing.assert_allclose(r1.primal.flat(), r2.primal.flat(), atol=1e-6)


def test_univariate_singleton_objective():
    uni = UnivariateMinProblem(
        dim=1, dual_dims=(1,), K1=1, K2=1,
        f=IndicatorFunction(Point([1.2])), h=zero_smooth(),
        g=[QuadraticDistance([0.0])], phi=[IndicatorFunction(Point([0.0]))],
        z=np.zeros(1), r=[np.zeros(1)], L=[1.0],
    )
    report = solve_univariate_min(uni, FbfConfig())
    assert report.primal[0][0] == pytest.approx(1.2, abs=1e-6)


def test_feasibility_box_and_line():
    demo = get_demo("boxhalf")
    report = solve_feasibility_relaxation(demo.build(), FbfConfig())
    assert report.converged
    np.testing.assert_allclose(report.primal.flat(), [1.0, 1.0], atol=1e-5)


def test_feasibility_consistent_sets_reach_zero_objective():
    p = FeasibilityRelaxation(
        dim=2,
        sets=[Box([0.0, 0.0], [1.0, 1.0]), Box([0.5, 0.0], [2.0, 2.0])],
        phi=[IndicatorFunction(Point([0.0, 0.0])), SquaredNorm(1.0)],
        L=[1.0, 1.0],
    )
    report = solve_feasibility_relaxation(p, FbfConfig())
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
    r1 = solve_feasibility_relaxation(feas, FbfConfig())
    r2 = solve_common_zero(cz, FbfConfig())
    np.testing.assert_allclose(r1.primal.flat(), r2.primal.flat(), atol=1e-6)


def test_feasibility_dominates_random_feasible_probes(rng):
    p = get_demo("boxhalf").build()
    report = solve_feasibility_relaxation(p, FbfConfig())
    best = relaxation_objective(p, report.primal.flat())
    for _ in range(100):
        probe = rng.uniform(0.0, 1.0, 2)  # anywhere in the hard box
        assert best <= relaxation_objective(p, probe) + 1e-9


def test_feasibility_matches_projected_gradient(rng):
    p = get_demo("boxhalf").build()
    report = solve_feasibility_relaxation(p, FbfConfig())
    oracle = projected_gradient_oracle(p)
    np.testing.assert_allclose(report.primal.flat(), oracle, atol=1e-5)


def test_feasibility_rejects_unvetted_penalty():
    with pytest.raises(ParameterError):
        FeasibilityRelaxation(
            dim=1, sets=[Box([0.0], [1.0])], phi=[L1Norm(1.0)], L=[1.0]
        )


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
            want, abs=1e-12)
        p = _one_block_min_problem(
            "op f 1 l1 weight=0.7\nop h 1 sqnorm omega=1.5\n", u)
        assert dual_objective(p, BlockVector.zeros((1,))) == pytest.approx(
            conj_l1_plus_sqnorm(0.7, 1.5, u), abs=1e-12)


def test_sqdist_h_builds_in_linear_time():
    # grad of ||x - a||^2/2 is x - a: a shifted identity, no n x n matrix
    t0 = time.process_time()
    p = _one_block_min_problem("op f 1 zero\nop h 1 sqdist a=1\n", np.zeros(2000))
    assert time.process_time() - t0 < 0.5
    grad = p.h[0].gradient
    assert grad.lipschitz == 1.0
    assert np.array_equal(grad(np.full(2000, 3.0)), np.full(2000, 2.0))


def test_dual_objective_needs_quadratic_h():
    from pdsplit import EvaluationError, LipschitzOperator, Smooth

    p = _one_block_min_problem("op f 1 zero\nop h 1 zero\n", np.zeros(2))
    p.h[0] = Smooth(lambda x: float(np.sum(x ** 4)),
                    LipschitzOperator(lambda x: 4 * x ** 3, 1.0))
    with pytest.raises(EvaluationError):
        dual_objective(p, BlockVector.zeros((1,)))
    # the primal objective does not depend on the dual evaluator
    assert primal_objective(p, BlockVector([np.ones(2)])) == pytest.approx(2.0)



def test_evaluate_objectives_gives_none_for_a_side_without_evaluator():
    from pdsplit import ConvexFunction, LipschitzOperator, Smooth

    p = _one_block_min_problem("op f 1 zero\nop h 1 zero\n", np.zeros(2))
    p.h[0] = Smooth(lambda x: float(np.sum(x ** 4)),
                    LipschitzOperator(lambda x: 4 * x ** 3, 1.0))
    x, v = BlockVector([np.ones(2)]), BlockVector.zeros((1,))
    assert evaluate_objectives(p, x, v) == (pytest.approx(2.0), None)
    p.f[0] = ConvexFunction()                   # no value evaluator either
    assert evaluate_objectives(p, x, v) == (None, None)


def test_relaxation_objective_with_a_zero_coupling():
    # L_2 = 0 maps every x to 0, at distance 3/sqrt(2) from the line
    p = get_demo("boxhalf").build()
    p = FeasibilityRelaxation(p.dim, p.sets, p.phi, [1.0, None])
    assert relaxation_objective(p, [1.0, 1.0]) == pytest.approx(4.5, rel=1e-15)


_SIG = SpaceSig((1, 1), (1,))


@pytest.mark.parametrize("make, message", [
    (lambda: ParallelSumProblem(1, (1,), 1, 1, ZeroOperator(), ZeroMap(), [0.0], [[0.0]],
                                [], [ScaledIdentity(1.0)], [1.0]),
     "need K entries in each of r, B, S, L"),
    (lambda: CommonZeroProblem(1, ZeroOperator(), [], []), "need K >= 1 operators in B and S"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()], [zero_smooth()] * 2,
                                    [ZeroFunction()], [None], None, None, None),
     "need 2 functions in f and h"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()] * 2, [zero_smooth()] * 2,
                                    [ZeroFunction()], [], None, None, None),
     "need 1 functions in g and ell"),
    (lambda: MultivariateMinProblem(_SIG, [ZeroFunction()] * 2, [zero_smooth()] * 2,
                                    [ZeroFunction()], [L1Norm(1.0)], None, None, None),
     "ell entries must be None or SquaredNorm couplings"),
    (lambda: UnivariateMinProblem(1, (1,), 1, 0, ZeroFunction(), zero_smooth(),
                                  [ZeroFunction()], [L1Norm(1.0)], None, None, None),
     "invalid partition 0 <= 1 <= 0 <= 1"),
    (lambda: UnivariateMinProblem(1, (1,), 0, 0, ZeroFunction(), zero_smooth(),
                                  [ZeroFunction()], [L1Norm(1.0)], None, None, None),
     "strongly convex phi entries must be SquaredNorm"),
    (lambda: FeasibilityRelaxation(1, [], [], []),
     "need matching nonempty sets, phi, and L lists"),
], ids=["psum-count", "common-zero-count", "multivar-f", "multivar-g", "multivar-ell",
        "univar-partition", "univar-phi", "feasibility-count"])
def test_a_malformed_front_end_problem_is_rejected(make, message):
    with pytest.raises(ParameterError) as exc:
        make()
    assert str(exc.value) == message

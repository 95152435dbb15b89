import numpy as np
import pytest

from pdsplit import (
    BlockLinearOp,
    BlockVector,
    Box,
    CoupledInclusionProblem,
    FbfConfig,
    NormalCone,
    ParameterError,
    Point,
    ScaledIdentity,
    ScaledIdentityMap,
    SpaceSig,
    SummableErrorSchedule,
    ZeroMap,
    compute_beta,
    kkt_residual,
    solve_system,
)
from conftest import random_coupled_problem
from oracles import system_iterates


def two_box_problem():
    """Two box-constrained scalars coupled through their difference."""
    sig = SpaceSig((1, 1), (1,))
    return CoupledInclusionProblem(
        sig,
        [NormalCone(Box([2.0], [3.0])), NormalCone(Box([0.0], [1.0]))],
        [ZeroMap(), ZeroMap()],
        [ScaledIdentity(1.0)],
        [ZeroMap()],
        BlockLinearOp([[1.0, -1.0]], sig),
        BlockVector.zeros((1, 1)),
        BlockVector.zeros((1,)),
    )


def test_compute_beta_formula():
    sig = SpaceSig((1,), (1,))
    mk = lambda lam, mu, nu: CoupledInclusionProblem(
        sig, [ScaledIdentity(0.0)], [ScaledIdentityMap(mu)],
        [ScaledIdentity(0.0)], [ScaledIdentityMap(nu)],
        BlockLinearOp([[1.0]], sig, lambda_bound=lam),
        BlockVector.zeros((1,)), BlockVector.zeros((1,)),
    )
    assert compute_beta(mk(2.0, 0.0, 0.0)) == pytest.approx(np.sqrt(2.0))
    assert compute_beta(mk(4.0, 3.0, 1.0)) == pytest.approx(5.0)
    with pytest.raises(ParameterError):
        compute_beta(mk(0.0, 0.0, 0.0))


def test_solve_two_box_coupling():
    report = solve_system(two_box_problem(), FbfConfig())
    assert report.converged
    np.testing.assert_allclose(report.primal.flat(), [2.0, 1.0], atol=1e-6)
    pk, dk = report.kkt
    assert pk <= 1e-7 and dk <= 1e-7


def test_singleton_primal_operators_pin_solution(rng):
    sig = SpaceSig((2, 1), (2,))
    c1, c2 = rng.standard_normal(2), rng.standard_normal(1)
    prob = CoupledInclusionProblem(
        sig,
        [NormalCone(Point(c1)), NormalCone(Point(c2))],
        [ZeroMap(), ZeroMap()],
        [ScaledIdentity(1.0)],
        [ZeroMap()],
        BlockLinearOp([[rng.standard_normal((2, 2)),
                        rng.standard_normal((2, 1))]], sig),
        BlockVector([rng.standard_normal(2), rng.standard_normal(1)]),
        BlockVector([rng.standard_normal(2)]),
    )
    report = solve_system(prob, FbfConfig())
    assert report.converged
    np.testing.assert_allclose(report.primal[0], c1, atol=1e-6)
    np.testing.assert_allclose(report.primal[1], c2, atol=1e-6)


def test_scalar_linear_system():
    # z = 2 with C = Id and B = Id, L = Id: x + v = 2 and v = x, so x = 1
    sig = SpaceSig((1,), (1,))
    prob = CoupledInclusionProblem(
        sig, [ScaledIdentity(0.0)], [ScaledIdentityMap(1.0)],
        [ScaledIdentity(1.0)], [ZeroMap()],
        BlockLinearOp([[1.0]], sig),
        BlockVector([[2.0]]), BlockVector.zeros((1,)),
    )
    report = solve_system(prob, FbfConfig())
    assert report.converged
    assert report.primal[0][0] == pytest.approx(1.0, abs=1e-6)
    assert report.dual[0][0] == pytest.approx(1.0, abs=1e-6)


def test_kkt_residual_at_closed_form_solution():
    prob = two_box_problem()
    x = BlockVector([[2.0], [1.0]])
    v = BlockVector([[1.0]])
    pk, dk = kkt_residual(prob, x, v)
    assert pk <= 1e-8 and dk <= 1e-8


def test_kkt_residual_positive_off_solution(rng):
    prob = two_box_problem()
    x = BlockVector([[2.7], [0.1]])
    v = BlockVector([[-0.4]])
    pk, dk = kkt_residual(prob, x, v)
    assert max(pk, dk) > 1e-3


def test_engine_equivalence_iterate_for_iterate(rng):
    for _ in range(5):
        prob = random_coupled_problem(rng)
        errors = SummableErrorSchedule(0.05, 2.0, seed=int(rng.integers(1000)))
        iterates = []
        cfg = FbfConfig(max_iters=50, residual_tol=0.0, errors=errors,
                        on_iteration=lambda n, w, p: iterates.append(w.flat().copy()))
        rep = solve_system(prob, cfg)
        iterates.append(rep.trace.w.flat())
        gamma = (1.0 - cfg.epsilon) / compute_beta(prob)
        ref = system_iterates(prob, gamma, 50, errors)
        gaps = [np.linalg.norm(a - b) for a, b in zip(iterates, ref)]
        assert len(gaps) == 51 and max(gaps) <= 1e-12


def test_kkt_invariant_across_gamma_choices():
    prob = two_box_problem()
    beta = compute_beta(prob)
    eps = 1e-2
    for g in (eps, 0.5 * (1 - eps) / beta, (1 - eps) / beta):
        report = solve_system(prob, FbfConfig(epsilon=eps, gamma=g))
        assert report.converged
        pk, dk = report.kkt
        assert pk <= 1e-7 and dk <= 1e-7


def test_square_summable_block_residuals():
    prob = two_box_problem()
    diffs = []
    cfg = FbfConfig(residual_tol=0.0, max_iters=500,
                    on_iteration=lambda n, w, p: diffs.append((w - p).flat()))
    report = solve_system(prob, cfg)
    split = len(diffs[0]) - len(report.dual.flat())
    sp = np.array([np.linalg.norm(d[:split]) for d in diffs]) ** 2
    sd = np.array([np.linalg.norm(d[split:]) for d in diffs]) ** 2
    assert np.isfinite(sp.sum()) and np.isfinite(sd.sum())
    n = len(sp)
    assert sp[-n // 10 :].sum() <= sp[: n // 10].sum()
    assert sd[-n // 10 :].sum() <= sd[: n // 10].sum()


def test_solver_reports_non_convergence():
    report = solve_system(two_box_problem(), FbfConfig(max_iters=2))
    assert not report.converged
    assert report.trace.iterations == 2


def test_problem_validation():
    sig = SpaceSig((1, 1), (1,))
    with pytest.raises(ParameterError):
        CoupledInclusionProblem(
            sig, [ScaledIdentity(0.0)], [ZeroMap(), ZeroMap()],
            [ScaledIdentity(0.0)], [ZeroMap()],
            BlockLinearOp([[1.0, -1.0]], sig),
            BlockVector.zeros((1, 1)), BlockVector.zeros((1,)),
        )

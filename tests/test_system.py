import re

import numpy as np
import pytest

import pdsplit.fbf
from pdsplit import (
    AffineMap,
    AffineOperator,
    Ball,
    BlockLinearOp,
    BlockVector,
    Box,
    CommonZeroProblem,
    CoupledInclusionProblem,
    FbfConfig,
    Halfspace,
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
    SubdifferentialOperator,
    SummableErrorSchedule,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
    apply_adjoint,
    apply_block,
    apply_skew,
    compute_beta,
    kkt_residual,
    lift_parallel_sum,
    product_space_pair,
    solve_common_zero,
    solve_system,
)
from conftest import random_coupled_problem, wide_coupled_problem
from oracles import kkt_residual_blockwise, system_iterates
from pdsplit.blocks import SMALL_BLOCK_DIM, block_slices
from pdsplit.fbf import epsilon_for
from pdsplit.operators import runs


def two_box_problem(**changes):
    """Two box-constrained scalars coupled through their difference, with
    the constructor arguments named in ``changes`` replaced."""
    sig = SpaceSig((1, 1), (1,))
    parts = dict(sig=sig, A=[NormalCone(Box([2.0], [3.0])), NormalCone(Box([0.0], [1.0]))],
                 C=[ZeroMap(), ZeroMap()], B=[ScaledIdentity(1.0)], Dinv=[ZeroMap()],
                 L=BlockLinearOp([[1.0, -1.0]], sig), z=BlockVector.zeros((1, 1)),
                 r=BlockVector.zeros((1,)))
    return CoupledInclusionProblem(**{**parts, **changes})


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
    # Q is constant: every positive number bounds its Lipschitz constant
    assert compute_beta(mk(0.0, 0.0, 0.0)) == 1.0


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
    pk, dk = kkt_residual(prob, np.array([2.0, 1.0, 1.0]))
    assert pk <= 1e-8 and dk <= 1e-8


def test_kkt_residual_positive_off_solution(rng):
    prob = two_box_problem()
    pk, dk = kkt_residual(prob, np.array([2.7, 0.1, -0.4]))
    assert max(pk, dk) > 1e-3


def test_kkt_residual_matches_the_blockwise_reference():
    # at unit step the pair's residual is the per-block graph distance, up
    # to rounding; checked at converged and at random points, over runs of
    # joined blocks, lone blocks and affine operators
    rng = np.random.default_rng(21)
    seen = set()
    for n in range(16):
        prob = (random_coupled_problem(rng, max_blocks=6) if n % 8
                else interleaved_runs_problem(rng))
        sig = prob.sig
        slices = block_slices(sig.dims_primal + sig.dims_dual)
        for ops, sl in ((prob.A, slices[: sig.m]), (prob.B, slices[sig.m :])):
            seen.update("lone" if run in sl else "run" for _, run, _ in runs(ops, sl))
        if any(isinstance(op, AffineOperator) for op in prob.A + prob.B):
            seen.add("affine")
        report = solve_system(prob, FbfConfig(max_iters=400, residual_tol=1e-10))
        x = BlockVector([rng.standard_normal(d) for d in sig.dims_primal])
        v = BlockVector([3 * rng.standard_normal(d) for d in sig.dims_dual])
        for got, want in ((report.kkt, kkt_residual_blockwise(prob, report.primal, report.dual)),
                          (kkt_residual(prob, np.concatenate((x.flat(), v.flat()))),
                           kkt_residual_blockwise(prob, x, v))):
            assert np.abs(np.subtract(got, want)).max() <= 1e-15
    assert seen == {"run", "lone", "affine"}


def cut_projection(cut, y):
    """The projection onto a lone Hyperplane or Halfspace, written out with
    each inner product summed in order, as a joined run sums each of its
    segments (a lone cut's ``u @ y`` may sum in another order)."""
    excess = sum(y * cut.u) - cut.rho
    if type(cut) is Halfspace:
        excess = max(excess, 0.0)
    return y - excess / sum(cut.u * cut.u) * cut.u


def test_the_pair_resolves_each_block_as_its_own_operator_does():
    # runs: on x, ZeroOperator (the identity), ScaledIdentity, ZeroOperator;
    # on v, Hyperplane and Halfspace cones; forward maps on some blocks.
    # Shifted, z is nonzero on one block and r on the last four; then both
    # are zero.  Bit for bit, block i of P is J_{gamma A_i}(x_i) and block
    # k is x_k - gamma J_{B_k/gamma}(x_k/gamma), whatever the shifts, and
    # Q is C_i x_i + (L^* v)_i - z_i and Dinv_k v_k - (L x)_k + r_k
    rng = np.random.default_rng(33)
    dp, dd = (2, 1, 2, 1, 1, 3), (2, 3, 2, 1, 3, 2, 1, 2)
    sig = SpaceSig(dp, dd)
    A = [ZeroOperator(), ZeroOperator(), ScaledIdentity(0.5), ScaledIdentity([2.0]),
         ZeroOperator(), ZeroOperator()]
    C = [ZeroMap(), ZeroMap(), ScaledIdentityMap(0.5), ScaledIdentityMap(0.3, [1.0]),
         ZeroMap(), AffineMap(np.eye(3))]
    cuts = (Hyperplane, Hyperplane, Halfspace, Halfspace) * 2
    B = [NormalCone(cut(rng.standard_normal(d), float(rng.uniform(-1.0, 1.0))))
         for cut, d in zip(cuts, dd)]
    Dinv = [ScaledIdentityMap(0.2)] * 3 + [ZeroMap()] * 5
    L = BlockLinearOp({(0, 0): rng.standard_normal((2, 2))}, sig)
    shifted = (BlockVector([np.zeros(d) for d in dp[:4]] + [np.zeros(1), rng.standard_normal(3)]),
               BlockVector([np.zeros(d) for d in dd[:4]] + [rng.standard_normal(d) for d in dd[4:]]))
    slices = block_slices(dp + dd)
    assert [b for _, _, b in runs(A, slices[:6])] == [range(0, 2), range(2, 4), range(4, 6)]
    dual_runs = runs(B, slices[6:])
    assert [b for _, _, b in dual_runs] == [range(2 * j, 2 * j + 2) for j in range(4)]
    for z, r in (shifted, (BlockVector.zeros(dp), BlockVector.zeros(dd))):
        prob = CoupledInclusionProblem(sig, A, C, B, Dinv, L, z, r)
        P_resolvent, Q = prob._pair
        for gamma in (0.3, 1.0, 2.5):
            # entries of both signs and scales, so some Halfspace blocks are
            # projected and others are not
            s = rng.standard_normal(sum(dp + dd)) * rng.choice([0.01, 1.0, 100.0], sum(dp + dd))
            got = P_resolvent(gamma, s, np.empty(s.size))
            for i, op in enumerate(A):
                assert np.array_equal(got[slices[i]], op.resolvent(gamma, s[slices[i]]))
            for k, op in enumerate(B):
                x = s[slices[6 + k]]
                want = x - gamma * cut_projection(op.set, x / gamma)
                assert np.array_equal(got[slices[6 + k]], want)
        x, v = np.split(s, [sum(dp)])
        got = Q(s, np.empty(s.size))
        adjoint, image = apply_adjoint(L, v), apply_block(L, x)
        for i, (op, zi) in enumerate(zip(C, z)):
            sl = slices[i]
            assert np.array_equal(got[sl], adjoint[sl] + op(x[sl]) - zi)
        for k, (op, rk) in enumerate(zip(Dinv, r)):
            sl = block_slices(dd)[k]
            assert np.array_equal(got[slices[6 + k]], op(v[sl]) - image[sl] + rk)
    # a point strictly inside a Halfspace, alone or joined, is returned as
    # it is: the clamp at 0 stays for the Halfspace
    pieces = [cut.u * (cut.rho - 1.0) / (cut.u @ cut.u) for cut in (B[2].set, B[3].set)]
    joined = dual_runs[1][0].set
    assert type(joined) is Halfspace
    for cut, x in ((B[2].set, pieces[0]), (B[3].set, pieces[1]),
                   (joined, np.concatenate(pieces))):
        assert np.array_equal(cut.project(x), x)


def _pairs_of_three_shapes():
    """Systems whose pairs the engine calls: random coupled systems, with
    dense cells and some 1 x 1 scalar ones; tv_chain's chain of scalar
    blocks, sqdist f_i and l1 g_k; and tiny_psum's lifted common zero of
    lines, hyperplane cones joined into one run."""
    rng = np.random.default_rng(21)
    probs = [random_coupled_problem(rng) for _ in range(6)]
    m = 16
    sig = SpaceSig((1,) * m, (1,) * (m - 1))
    chain = {(k, k): 1.0 for k in range(m - 1)} | {(k, k + 1): -1.0 for k in range(m - 1)}
    probs.append(MultivariateMinProblem(
        sig, [QuadraticDistance([y]) for y in rng.standard_normal(m)], [ZeroFunction()] * m,
        [L1Norm(0.5)] * (m - 1), [None] * (m - 1), BlockVector.zeros(sig.dims_primal),
        BlockVector.zeros(sig.dims_dual), BlockLinearOp(chain, sig)))
    lines = [([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0), ([0.6, 0.8], 0.5)]
    probs.append(CommonZeroProblem(2, ZeroOperator(),
                                   [NormalCone(Hyperplane(u, rho)) for u, rho in lines],
                                   [ScaledIdentity(1.0)] * 3)._system)
    return probs


def test_the_pair_writes_every_entry_of_its_output_and_returns_it():
    # out filled with nan first: a path that adds into out without clearing
    # it, or leaves an entry unwritten, reads nan or other bits than the
    # same call into zeros
    probs = _pairs_of_three_shapes()
    assert {prob.L.skew_gather is None for prob in probs} == {True, False}
    rng = np.random.default_rng(4)
    for prob in probs:
        P_resolvent, Q = prob._pair
        n = sum(prob.sig.dims_primal + prob.sig.dims_dual)
        for gamma in (0.3, 1.0, 2.5):
            s = rng.standard_normal(n) * rng.choice([0.01, 1.0, 100.0], n)
            for f, args in ((P_resolvent, (gamma, s)), (Q, (s,)), (apply_skew, (prob.L, s))):
                out = np.full(n, np.nan)
                assert f(*args, out) is out
                assert out.tobytes() == f(*args, np.zeros(n)).tobytes()
            assert out.tobytes() == apply_skew(prob.L, s).tobytes()


def test_a_warm_solve_with_two_redone_iterations_inverts_nothing(monkeypatch):
    # at STEP_SAFETY 1 this problem redoes two iterations, so a solve uses
    # four steps: the unit step, the first step and two smaller ones
    monkeypatch.setattr(pdsplit.fbf, "STEP_SAFETY", 1.0)
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(1) or inv(a))
    prob = wide_coupled_problem(np.random.default_rng(17), (10,) * 3, (10,) * 3)
    assert any(isinstance(op, AffineOperator) for op in prob.A + prob.B)
    counts = []
    for _ in range(2):
        inversions.clear()
        report = solve_system(prob, FbfConfig(max_iters=500))
        assert report.converged and report.trace.retries == 2
        counts.append(len(inversions))
    assert counts[0] > 0 and counts[1] == 0


def test_a_problem_builds_its_pair_once_and_holds_no_cycle(rng, monkeypatch):
    import gc
    import weakref

    import pdsplit.system

    builds = []
    original = pdsplit.system.product_space_pair
    monkeypatch.setattr(pdsplit.system, "product_space_pair",
                        lambda prob: builds.append(None) or original(prob))
    prob = random_coupled_problem(rng)
    assert not builds                     # nothing is built at set-up
    report = solve_system(prob, FbfConfig(max_iters=50))
    solve_system(prob, FbfConfig(max_iters=50))
    kkt_residual(prob, report.trace.w)
    assert len(builds) == 1
    gone = weakref.ref(prob)
    gc.disable()
    try:
        del prob
        assert gone() is None             # freed without the cycle collector
    finally:
        gc.enable()


def test_one_evaluation_of_q_sweeps_the_coupling_once(rng, monkeypatch):
    import pdsplit.blocks
    import pdsplit.system

    calls = []
    for mod in (pdsplit.blocks, pdsplit.system):
        for name in ("apply_block", "apply_adjoint", "apply_skew"):
            original = getattr(mod, name, None)
            if original is not None:
                monkeypatch.setattr(mod, name, lambda *args, _f=original, _n=name:
                                    calls.append(_n) or _f(*args))
    prob = random_coupled_problem(rng)
    _, Q = product_space_pair(prob)
    size = sum(prob.sig.dims_primal + prob.sig.dims_dual)
    Q(rng.standard_normal(size), np.empty(size))
    assert calls == ["apply_skew"]


def test_engine_equivalence_iterate_for_iterate(rng):
    for _ in range(5):
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
                    on_iteration=lambda n, w, p: diffs.append(w - p))
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
    # an operator whose parameters do not fit its block is named by role
    # and 1-based index, whatever wrapper it sits in
    def problem(A=None, C=None, B=None, Dinv=None, dims=(1, 1)):
        sig = SpaceSig(dims, (1,))
        return CoupledInclusionProblem(
            sig, A or [ZeroOperator()] * 2, C or [ZeroMap()] * 2,
            B or [ScaledIdentity(1.0)], Dinv or [ZeroMap()],
            BlockLinearOp({(0, 0): np.ones((1, dims[0]))}, sig),
            BlockVector.zeros(dims), BlockVector.zeros((1,)))

    box = NormalCone(Box([-1.0], [1.0]))
    for bad, message in (
        (dict(A=[NormalCone(Box([], [])), box]),
         "A 1: lo has 0 entries for a block of dimension 1"),
        (dict(A=[box, QuadraticDistance([1, 2]).subdifferential()]),
         "A 2: a has 2 entries for a block of dimension 1"),
        (dict(A=[NormalCone(Ball([0, 0], 1)), box]),
         "A 1: center has 2 entries for a block of dimension 1"),
        (dict(A=[box, IndicatorFunction(Box([0, 0], [1, 1])).subdifferential()]),
         "A 2: lo has 2 entries"),
        (dict(B=[NormalCone(Hyperplane([1, 1], 0.0))]), "B 1: u has 2 entries"),
        (dict(B=[NormalCone(Point([0, 0]))]), "B 1: c has 2 entries"),
        (dict(C=[ZeroMap(), AffineMap(np.eye(2))]), "C 2: M has shape (2, 2)"),
        (dict(Dinv=[ScaledIdentityMap(1.0, [0, 0])]), "Dinv 1: b has 2 entries"),
        (dict(Dinv=[AffineMap(np.eye(1), [0, 0])]), "Dinv 1: b has 2 entries"),
    ):
        with pytest.raises(ParameterError, match=re.escape(message)):
            problem(**bad)
    # a member that is not an operator of its role is named the same way
    for bad, message in (
        (dict(A=[box, None]), "A 2: NoneType is not a MonotoneOperator"),
        (dict(B=[L1Norm(1.0).prox]), "B 1: method is not a MonotoneOperator"),
        (dict(C=[lambda x: x, ZeroMap()]), "C 1: function is not a LipschitzOperator"),
        (dict(Dinv=[ScaledIdentity(1.0)]), "Dinv 1: ScaledIdentity is not a LipschitzOperator"),
    ):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            problem(**bad)
    # ... and a common-zero problem's at its first solve, where it lifts,
    # under its own role, not the lifted system's
    lifted = CommonZeroProblem(1, None, [ZeroOperator()], [ZeroOperator()])
    with pytest.raises(ParameterError, match="^A: NoneType is not a MonotoneOperator$"):
        solve_common_zero(lifted, FbfConfig(max_iters=10))
    # a parameter of length 1 spreads over its block; a subclass, and a
    # LipschitzOperator of a callable, are not fit-checked
    problem(A=[NormalCone(Box([-1.0], [1.0])), L1Norm([0.5]).subdifferential()], dims=(3, 2))
    problem(A=[_ScaledIdentity([1.0, 2.0]), box],
            C=[LipschitzOperator(lambda x: 0.0 * x, 0.0), ZeroMap()])


class _ScaledIdentity(ScaledIdentity):
    """A subclass is the caller's to fit to its block."""


def interleaved_runs_problem(rng):
    """Blocks whose operators join in runs, broken by operators that do not
    join and by a block above SMALL_BLOCK_DIM, coupled by scalar and dense
    cells."""
    big = SMALL_BLOCK_DIM + 6
    dp = (1, 2, 3, big, 2, 2, 1, 3, 1)
    dd = (1, 2, big, 3, 1, 2)
    box = NormalCone(Box(-np.ones(2), np.ones(2)))
    A = [L1Norm(0.3).subdifferential(), L1Norm([0.1, 0.2]).subdifferential(),
         L1Norm(0.5).subdifferential(),                                  # run of 3
         NormalCone(Box(-np.ones(big), np.ones(big))),                    # large
         box, NormalCone(Box([-0.5], [0.5])),                             # run of 2
         NormalCone(Hyperplane([1.0], 0.2)),                              # does not join
         SquaredNorm(0.7).subdifferential(), SquaredNorm(0.2).subdifferential()]
    C = [ScaledIdentityMap(0.5), ScaledIdentityMap(0.2, [0.1, -0.3]), ZeroMap(),
         ScaledIdentityMap(0.3), ScaledIdentityMap([0.1, 0.2]),
         AffineMap(np.array([[1.0, 0.5], [-0.5, 0.2]])), ZeroMap(),
         ScaledIdentityMap(0.4), LipschitzOperator(lambda x: 0.5 * x, 0.5)]
    B = [ScaledIdentity(1.0), ScaledIdentity([0.5, 2.0]),               # run of 2
         ScaledIdentity(1.0),                                             # large
         NormalCone(Ball(np.zeros(3), 1.0)),                              # does not join
         QuadraticDistance([0.3]).subdifferential(),
         IndicatorFunction(Box([-1.0], [1.0])).subdifferential()]        # mixed kinds
    Dinv = [ZeroMap(), ScaledIdentityMap(0.4), ScaledIdentityMap(0.1), ZeroMap(),
            ScaledIdentityMap(0.2), ScaledIdentityMap(0.3)]
    cells = {}
    for k, dk in enumerate(dd):
        for i, di in enumerate(dp):
            kind = rng.random()
            if kind < 0.35 and dk == di:
                cells[(k, i)] = float(rng.uniform(-1.5, 1.5))
            elif kind < 0.6:
                cells[(k, i)] = rng.standard_normal((dk, di)) / np.sqrt(max(dk, di))
    sig = SpaceSig(dp, dd)
    return CoupledInclusionProblem(
        sig, A, C, B, Dinv, BlockLinearOp(cells, sig),
        BlockVector([rng.standard_normal(d) for d in dp]),
        BlockVector([rng.standard_normal(d) for d in dd]))


def test_engine_equivalence_over_interleaved_runs(monkeypatch):
    rng = np.random.default_rng(12)
    for _ in range(4):
        prob = interleaved_runs_problem(rng)
        errors = SummableErrorSchedule(0.05, 2.0, seed=int(rng.integers(1000)))
        iterates = []
        cfg = FbfConfig(max_iters=50, residual_tol=0.0, errors=errors,
                        on_iteration=lambda n, w, p: iterates.append(w.copy()))
        rep = solve_system(prob, cfg)
        iterates.append(rep.trace.w)
        beta = compute_beta(prob)
        gamma = (1.0 - epsilon_for(cfg, beta)) / beta
        ref = system_iterates(prob, [gamma] * 50, errors)
        gaps = [np.linalg.norm(a - b) for a, b in zip(iterates, ref)]
        assert len(gaps) == 51 and max(gaps) <= 1e-12
    # one resolvent per run: primal {0,1,2} {3} {4,5} {6} {7,8}, dual
    # {0,1} {2} {3} {4} {5}
    calls = []
    for cls in (NormalCone, ScaledIdentity, SubdifferentialOperator):
        original = cls.resolvent
        monkeypatch.setattr(cls, "resolvent", lambda self, gamma, x, f=original:
                            calls.append(x.size) or f(self, gamma, x))
    P_resolvent, _ = product_space_pair(prob)
    size = sum(prob.sig.dims_primal + prob.sig.dims_dual)
    P_resolvent(0.1, np.zeros(size), np.empty(size))
    assert calls == [6, SMALL_BLOCK_DIM + 6, 4, 1, 4, 3, SMALL_BLOCK_DIM + 6, 3, 1, 2]


def test_hyperplane_dual_blocks_of_a_parallel_sum_join_into_one_run():
    # the common-zero family: K hyperplanes in R^dim, each its own dual block
    rng = np.random.default_rng(14)
    K, dim = 6, 3
    B = [NormalCone(Hyperplane(rng.standard_normal(dim), float(rng.uniform(-2.0, 2.0))))
         for _ in range(K)]
    psum = ParallelSumProblem(dim, (dim,) * K, K, K, ZeroOperator(), ZeroMap(), np.zeros(dim),
                              [np.zeros(dim)] * K, B, [ScaledIdentity(1.0)] * K, [1.0] * K)
    prob = lift_parallel_sum(psum)
    [(op, sl, blocks)] = runs(prob.B, block_slices(prob.sig.dims_dual))
    assert sl == slice(0, K * dim) and blocks == range(K)
    assert type(op) is NormalCone and type(op.set) is Hyperplane
    # a lone block above SMALL_BLOCK_DIM keeps its own operator, and splits
    # the run it stands in
    big = NormalCone(Hyperplane(np.ones(SMALL_BLOCK_DIM + 1), 1.0))
    ops = B[:2] + [big] + B[2:]
    found = runs(ops, block_slices((dim, dim, SMALL_BLOCK_DIM + 1) + (dim,) * (K - 2)))
    cut = 2 * dim + SMALL_BLOCK_DIM + 1
    assert [sl for _, sl, _ in found] == [slice(0, 2 * dim), slice(2 * dim, cut),
                                          slice(cut, cut + (K - 2) * dim)]
    assert [blocks for _, _, blocks in found] == [range(0, 2), range(2, 3), range(3, K + 1)]
    assert found[1][0] is big


def test_the_certificate_is_the_same_on_a_second_call():
    # report.kkt is a function of the problem and the point: an affine
    # resolvent that answered a new step by a solve and a repeated one by a
    # kept inverse made a second call read differently in its last bits
    affine = 0
    for seed in range(40):
        prob = random_coupled_problem(np.random.default_rng(seed))
        affine += any(isinstance(op, AffineOperator) for op in prob.A + prob.B)
        report = solve_system(prob, FbfConfig(max_iters=200))
        assert report.kkt == kkt_residual(prob, report.trace.w), seed
    assert affine == 26


def test_a_hook_certifies_the_point_it_is_given(monkeypatch):
    # the hook's w is the flat iterate kkt_residual takes; on a converged
    # run the last one is trace.w, so its certificate is report.kkt
    import pdsplit.system

    builds = []
    original = pdsplit.system.product_space_pair
    monkeypatch.setattr(pdsplit.system, "product_space_pair",
                        lambda prob: builds.append(None) or original(prob))
    solved = 0
    for seed in range(12):
        prob = random_coupled_problem(np.random.default_rng(seed))
        seen = []
        cfg = FbfConfig(max_iters=2000, on_iteration=lambda n, w, p: seen.append(
            kkt_residual(prob, w)))
        report = solve_system(prob, cfg)
        if report.converged:
            solved += 1
            assert seen[-1] == report.kkt, seed
        assert len(seen) == report.trace.iterations and len(builds) == seed + 1, seed
    assert solved >= 10


def test_the_certificate_refuses_what_is_not_the_flat_iterate_and_leaves_it_alone():
    prob = two_box_problem()
    for w in (BlockVector([[2.0], [1.0], [1.0]]), [2.0, 1.0, 1.0],
              np.array([[2.0, 1.0, 1.0]]), np.array([2.0, 1.0])):
        with pytest.raises(SignatureError, match=r"^primal-dual vector must be a 1-D "
                                                 r"array of length 3, got "):
            kkt_residual(prob, w)
    w = np.array([2.7, 0.1, -0.4])
    kept = w.copy()
    kkt_residual(prob, w)
    assert np.array_equal(w, kept)


class _NegativeMap(LipschitzOperator):
    """A subclass that sets its own constant, negative, which
    LipschitzOperator's constructor would reject."""

    def __init__(self):
        self.lipschitz = -1.0


_NEGATIVE = _NegativeMap()


@pytest.mark.parametrize("changes, message", [
    ({"B": [ScaledIdentity(1.0)] * 2}, "need 1 dual operators B and Dinv"),
    ({"L": BlockLinearOp([[1.0]], SpaceSig((1,), (1,)))},
     "coupling grid signature does not match the problem"),
    ({"C": [_NEGATIVE, ZeroMap()]}, "C constants must be nonnegative"),
    ({"Dinv": [_NEGATIVE]}, "Dinv constants must be nonnegative"),
], ids=["dual-count", "signature", "C-constant", "Dinv-constant"])
def test_a_malformed_system_is_rejected(changes, message):
    with pytest.raises(ParameterError) as exc:
        two_box_problem(**changes)
    assert str(exc.value) == message


@pytest.mark.parametrize("changes, message", [
    ({"z": np.zeros(2)}, "z vector must be a BlockVector with blocks (1, 1), got ndarray"),
    ({"r": [0.0]}, "r vector must be a BlockVector with blocks (1,), got list"),
], ids=["z-array", "r-list"])
def test_a_shift_that_is_not_a_block_vector_is_rejected(changes, message):
    with pytest.raises(SignatureError) as exc:
        two_box_problem(**changes)
    assert str(exc.value) == message


@pytest.mark.parametrize("changes, message", [
    ({"z": BlockVector([[np.inf], [0.0]])}, "the shift z must be finite"),
    ({"r": BlockVector([[-np.inf]])}, "the shift r must be finite"),
    ({"z": BlockVector([[0.0], [np.nan]])}, "the shift z must be finite"),
], ids=["z-inf", "r-inf", "z-nan"])
def test_a_non_finite_shift_is_rejected_when_the_pair_is_built(changes, message):
    # z = (inf, 0) used to "converge" after 9 iterations with kkt (0, 8e-12):
    # the certificate divided by 1 + ||u|| = inf
    prob = two_box_problem(**changes)
    with pytest.raises(ParameterError) as exc:
        solve_system(prob, FbfConfig())
    assert str(exc.value) == message

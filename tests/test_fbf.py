import itertools
import math
import tracemalloc

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
    ZeroOperator,
    fbf_solve,
)
from conftest import random_coupled_problem, wide_coupled_problem
from oracles import anderson_iterates, system_map
from pdsplit import fbf
from pdsplit.demos import DEMO_NAMES, get_demo
from pdsplit.fbf import epsilon_for, gamma_for
from pdsplit.probfile import build_problem, parse_problem
from pdsplit.system import compute_beta, solve_system


def _norm(f):
    """The engine's norm, rounded as it rounds."""
    return math.sqrt(float(f @ f))


def writing(f):
    """f, which returns a new array, as the engine calls P and Q: into the
    array given last, which it returns."""
    def into(*args):
        *args, out = args
        out[:] = f(*args)
        return out
    return into


def fresh(f):
    """An engine callable as a function that returns a new array."""
    return lambda *args: f(*args, np.empty(np.size(args[-1])))


def scalar_pair(P, q):
    """A 1-D operator and a scalar map as the engine's callables."""
    return writing(P.resolvent), writing(q)


def test_converges_to_interval_stationary_point():
    # zero of N_[-1,1] + (x - 2) is the right endpoint 1
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    cfg = FbfConfig(gamma=0.45, residual_tol=1e-12)
    tr = fbf_solve(P, Q, 1.0, np.zeros(1), cfg)
    assert tr.converged
    assert tr.p[0] == pytest.approx(1.0, abs=1e-9)


def test_zero_problem_stops_immediately():
    P, Q = scalar_pair(ZeroOperator(), lambda x: 0.0 * x)
    w0 = np.array([2.0, -3.0])
    tr = fbf_solve(P, Q, 1.0, w0, FbfConfig())
    assert tr.converged and tr.iterations == 1
    assert tr.rows[0][2] == 0.0
    assert np.linalg.norm(tr.w - w0) == 0.0


def test_singleton_resolvent_pins_iterate():
    P, Q = scalar_pair(NormalCone(Point([0.0])), lambda x: np.cos(x))
    tr = fbf_solve(P, Q, 1.0, np.array([3.0]), FbfConfig())
    assert tr.converged
    assert abs(tr.p[0]) <= 1e-8


def test_fejer_monotone_toward_solution():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    iterates = []
    cfg = FbfConfig(gamma=0.45, residual_tol=0.0, max_iters=200,
                    on_iteration=lambda n, w, p: iterates.append(w.copy()))
    tr = fbf_solve(P, Q, 1.0, np.zeros(1), cfg)
    iterates.append(tr.w)
    wbar = np.ones(1)
    dists = [np.linalg.norm(w - wbar) for w in iterates]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9


def test_gamma_range_robustness():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    eps = 1e-2
    limits = []
    for g in (eps, 0.5 * (1 - eps), (1 - eps)):
        cfg = FbfConfig(epsilon=eps, gamma=g, residual_tol=1e-12)
        tr = fbf_solve(P, Q, 1.0, np.zeros(1), cfg)
        assert tr.converged
        limits.append(tr.p[0])
    assert np.ptp(limits) <= 1e-6


def test_square_summable_residuals():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    cfg = FbfConfig(gamma=0.45, residual_tol=0.0, max_iters=300)
    tr = fbf_solve(P, Q, 1.0, np.zeros(1), cfg)
    sq = np.array([resid for _, _, resid in tr.rows]) ** 2
    assert np.isfinite(sq.sum())
    n = len(sq)
    assert sq[-n // 10 :].sum() < sq[: n // 10].sum()


def test_divergence_raises_with_iteration():
    # declare a wildly wrong Lipschitz constant so the step expands by
    # 9703x per iteration; the residual of iteration 39 overflows.  The
    # step test fails at every iteration, but the step never goes below
    # the floor (1 - epsilon)/chi
    P, Q = scalar_pair(ZeroOperator(), lambda x: 10.0 * x)
    tr = fbf_solve(P, Q, 0.1, np.ones(1), FbfConfig(residual_tol=0.0))
    assert tr.stop_reason == "diverged" and not tr.converged
    assert tr.iterations == 40 and tr.rows[-1][0] == 39
    assert np.isfinite(tr.w).all()
    assert {gamma for _, gamma, _ in tr.rows} == {0.99 / 0.1} and tr.retries == 0


def test_an_overflowing_residual_is_divergence_at_any_tolerance():
    # inf <= tol * inf holds, so without its own check an overflowing
    # residual would read as convergence at the default tolerance
    P, Q = scalar_pair(ZeroOperator(), lambda x: 10.0 * x)
    tr = fbf_solve(P, Q, 0.1, np.ones(1), FbfConfig())
    assert tr.stop_reason == "diverged" and not tr.converged
    assert tr.rows[-1][2] == np.inf and np.isfinite(tr.w).all()


def test_an_overflowing_update_is_divergence():
    # the residual ||w - p|| is finite, but Q overflows at p, and so does
    # the update built from Q(p)
    P, Q = writing(lambda gamma, s: np.full(1, 1e10)), writing(lambda w: 1e300 * w)
    tr = fbf_solve(P, Q, 1.0, np.ones(1), FbfConfig(residual_tol=0.0))
    assert tr.stop_reason == "diverged" and tr.iterations == 1
    assert np.isfinite(tr.rows[-1][2]) and np.array_equal(tr.w, np.ones(1))


# (demo, text replaced, replacement): a finite number near the float range
# overflows the first iteration
_NEAR_MAX = [("legendre", "rho=1\n", "rho=1e308\n"), ("lasso1d", "vec r 0 0", "vec r 1e308 0"),
             ("twobox", "vec r 0", "vec r 1e308"), ("boxhalf", "rho=3", "rho=1e308")]


@pytest.mark.parametrize("name, old, new", (
    [pytest.param(n, None, None, id=f"{n}-eta1e200") for n in DEMO_NAMES]
    + [pytest.param(*case, id=f"{case[0]}-1e308") for case in _NEAR_MAX]))
def test_a_diverging_solve_and_its_certificate_warn_nothing(name, old, new):
    # the non-finite residual or update is the "diverged" stop; under the
    # suite's warnings-as-errors a numpy overflow warning from the engine
    # or from kkt_residual would raise instead
    if old is None:
        cfg = FbfConfig(errors=SummableErrorSchedule(1e200, 2.0, 3))
        report = get_demo(name).solve(cfg)[0]
    else:
        text = get_demo(name).text
        assert old in text
        prob, solver = build_problem(parse_problem(text.replace(old, new, 1)))
        report = solver(prob, FbfConfig(max_iters=200))
    assert report.trace.stop_reason == "diverged"


def test_chi_and_epsilon_validation():
    P, Q = scalar_pair(ZeroOperator(), lambda x: x)
    with pytest.raises(ParameterError):
        fbf_solve(P, Q, 0.0, np.ones(1), FbfConfig())
    with pytest.raises(ParameterError):
        # epsilon must stay below 1/(chi+1)
        fbf_solve(P, Q, 1.0, np.ones(1), FbfConfig(epsilon=0.6))


def test_gamma_for_validates_range():
    cfg = FbfConfig(epsilon=1e-2)
    assert gamma_for(cfg, 2.0, 0) == pytest.approx((1 - 1e-2) / 2.0)
    with pytest.raises(ParameterError):
        gamma_for(FbfConfig(gamma=5.0), 2.0, 0)
    with pytest.raises(ParameterError):
        gamma_for(FbfConfig(gamma=1e-4), 2.0, 0)


def test_gamma_for_checks_the_epsilon_window_first_under_its_own_key():
    # chi = 1 allows epsilon below 1/2; the step 5 is out of range too
    with pytest.raises(ParameterError, match=r"^epsilon 0\.6 must be below "
                       r"1/\(chi\+1\) = 0\.5$") as exc:
        gamma_for(FbfConfig(epsilon=0.6, gamma=5.0), 1.0, 0)
    assert exc.value.key == "epsilon"
    with pytest.raises(ParameterError, match=r"^gamma 5\.0 at iteration 3 ") as exc:
        gamma_for(FbfConfig(gamma=5.0), 1.0, 3)
    assert exc.value.key == "gamma"


def test_the_default_epsilon_fits_every_chi():
    # min(1e-2, 1/(2(chi+1))): 1e-2 up to chi = 49, so the steps there are
    # as they were, and below 1/(chi+1) at every chi, where a fixed 1e-2
    # refused chi >= 99; a caller's epsilon is checked as it is given
    for chi in (0.5, 1.0, 49.0, 99.0, 200.0, 1e6):
        eps = epsilon_for(FbfConfig(), chi)
        assert eps == (1e-2 if chi <= 49.0 else 0.5 / (chi + 1.0))
        assert gamma_for(FbfConfig(), chi, 0) == (1.0 - eps) / chi
    assert epsilon_for(FbfConfig(epsilon=0.3), 200.0) == 0.3
    with pytest.raises(ParameterError, match=r"^epsilon 0\.01 must be below "):
        gamma_for(FbfConfig(epsilon=1e-2), 200.0, 0)


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_a_zero_error_schedule_runs_as_no_schedule(name):
    # its draws are scaled to norm 0, which leaves every evaluation as it is
    clean, _ = get_demo(name).solve(FbfConfig())
    zero, _ = get_demo(name).solve(FbfConfig(errors=SummableErrorSchedule(0.0, 2.0, 3)))
    assert zero.trace.iterations == clean.trace.iterations
    assert np.array_equal(zero.trace.w, clean.trace.w) and zero.kkt == clean.kkt


def test_error_schedule_zero_eta():
    s = SummableErrorSchedule(0.0, 2.0)
    a, b, c = s(5, (2, 3))
    assert np.linalg.norm(a.flat()) == np.linalg.norm(b.flat()) == np.linalg.norm(c.flat()) == 0.0


def test_error_schedule_partial_sum_bound():
    s = SummableErrorSchedule(1.0, 2.0)
    partial = sum(s.norm_at(n) for n in range(100000))
    assert partial <= np.pi ** 2 / 6


def test_error_schedule_determinism():
    s1 = SummableErrorSchedule(0.5, 1.5, seed=9)
    s2 = SummableErrorSchedule(0.5, 1.5, seed=9)
    for n in range(10):
        for slot in range(3):
            d = s1.vec(n, slot, (2, 2)).flat() - s2.vec(n, slot, (2, 2)).flat()
            assert np.linalg.norm(d) == 0.0


@pytest.mark.parametrize("dims", [(1,), (2, 3), (7, 1, 40), (100000,)])
def test_error_draw_has_the_scheduled_norm_and_a_bounded_direction(dims):
    s = SummableErrorSchedule(0.7, 1.5, seed=3)
    for n in (0, 1, 9, 250):
        draws = [s.vec(n, slot, dims).flat() for slot in range(3)]
        for e in draws:
            assert e.shape == (sum(dims),) and e.dtype == np.float64
            assert abs(np.linalg.norm(e) / s.norm_at(n) - 1.0) <= 1e-15
            assert np.abs(e).max() <= s.norm_at(n)
        if sum(dims) > 1:                       # the three slots differ
            assert len({e.tobytes() for e in draws}) == 3


def test_error_draw_over_split_dims_is_the_flat_draw():
    s = SummableErrorSchedule(0.3, 2.0, seed=8)
    for n in (0, 4):
        for slot in range(3):
            split = s.vec(n, slot, (3, 1, 5))
            assert [b.size for b in split.blocks] == [3, 1, 5]
            assert np.array_equal(split.flat(), s.vec(n, slot, (9,)).flat())


def test_a_draw_into_given_arrays_is_the_fresh_draw():
    # each slot fills the array it is given with the values of a draw into
    # a new array, whatever the array held, and returns views of it
    s = SummableErrorSchedule(0.3, 2.0, seed=8)
    for dims, n in itertools.product([(9,), (4, 5), (100000,)], (0, 1, 7)):
        out = tuple(np.full(sum(dims), np.nan) for _ in range(3))
        drawn = s(n, dims, out)
        for e, buf, want in zip(drawn, out, s(n, dims), strict=True):
            assert e.flat() is buf and all(np.shares_memory(b, buf) for b in e.blocks)
            assert [b.size for b in e.blocks] == list(dims)
            assert buf.tobytes() == want.flat().tobytes()
        assert len({buf.tobytes() for buf in out}) == 3


def test_the_three_slots_draw_into_arrays_of_their_own():
    s = SummableErrorSchedule(0.3, 2.0, seed=8)
    for n in (0, 1):
        a, b, c = (e.flat() for e in s(n, (4, 5)))
        assert not any(np.shares_memory(x, y) for x, y in ((a, b), (a, c), (b, c)))
        assert len({a.tobytes(), b.tobytes(), c.tobytes()}) == 3


@pytest.mark.parametrize("max_iters", [30, 31])
def test_a_second_solve_with_one_schedule_leaves_the_first_report_alone(max_iters):
    # w alternates between two arrays, so the budget's parity picks the
    # one the first report ends in
    errors = SummableErrorSchedule(0.05, 2.0, seed=4)
    rng = np.random.default_rng(5)
    probs = [wide_coupled_problem(rng) for _ in range(2)]
    cfg = FbfConfig(max_iters=max_iters, residual_tol=0.0, errors=errors)
    first = solve_system(probs[0], cfg)
    parts = (first.trace.w, first.trace.p, first.primal.flat(), first.dual.flat())
    kept = [a.copy() for a in parts]
    second = solve_system(probs[1], cfg)
    assert not np.array_equal(second.trace.w, first.trace.w)
    assert all(np.array_equal(a, b) for a, b in zip(parts, kept))


def _chain_box_problem(m, dim):
    """Boxes coupled in a chain x_k - x_{k+1}, with C_i = Id and B_k = Id:
    the layout of the benchmark's error workload."""
    sig = SpaceSig((dim,) * m, (dim,) * (m - 1))
    cells = {}
    for k in range(m - 1):
        cells[(k, k)], cells[(k, k + 1)] = 1.0, -1.0
    z = np.random.default_rng(0).standard_normal((m, dim))
    return CoupledInclusionProblem(
        sig, [NormalCone(Box(-np.ones(dim), np.ones(dim))) for _ in range(m)],
        [ScaledIdentityMap(1.0)] * m, [ScaledIdentity(1.0)] * (m - 1), [ZeroMap()] * (m - 1),
        BlockLinearOp(cells, sig), BlockVector(list(z)), BlockVector.zeros(sig.dims_dual))


def test_an_error_solve_allocates_no_product_vector_per_iteration():
    # the run allocates w, the spare iterate, s, Q(w), p and Q(p) once, and
    # P, Q and the three error draws write into them; with the caller's w0
    # that is 7 product vectors, and the whole run peaks at 7.1.  Between
    # two calls of the hook, an iteration's temporaries, block-sized, stay
    # under half a product vector above what is held, so a product-size
    # temporary anywhere in the loop fails, not only one at the peak
    prob = _chain_box_problem(8, 13_333)
    size = sum(prob.sig.dims_primal + prob.sig.dims_dual)
    prob._pair                                  # built before the count
    excess = []

    def hook(n, w, p):
        held, peak = tracemalloc.get_traced_memory()
        excess.append(peak - held)
        tracemalloc.reset_peak()

    cfg = FbfConfig(max_iters=6, residual_tol=0.0, errors=SummableErrorSchedule(0.1, 2.0, 1),
                    on_iteration=hook)
    tracemalloc.start()
    try:
        report = solve_system(prob, cfg)
    finally:
        tracemalloc.stop()
    assert report.trace.iterations == len(excess) == 6
    assert max(excess) <= 0.5 * 8 * size
    cfg.on_iteration = None
    tracemalloc.start()
    try:
        solve_system(prob, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 8 * size


def test_error_schedule_rejects_non_summable():
    with pytest.raises(ParameterError):
        SummableErrorSchedule(1.0, 1.0)
    with pytest.raises(ParameterError):
        SummableErrorSchedule(-1.0, 2.0)
    with pytest.raises(ParameterError) as exc:     # eta bounds the error norms' sum
        SummableErrorSchedule(float("inf"), 2.0)
    assert exc.value.key == "eta"


@pytest.mark.parametrize("seed", [-1, 2.7, float("nan"), float("inf")])
def test_error_schedule_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ParameterError) as exc:
        SummableErrorSchedule(0.1, 2.0, seed=seed)
    assert exc.value.key == "seed"


def test_error_schedule_takes_an_integral_seed_in_any_type():
    for seed in (3, 3.0, np.int64(3)):
        assert SummableErrorSchedule(0.1, 2.0, seed=seed).seed == 3


def test_error_robustness_same_limit():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    clean = fbf_solve(P, Q, 1.0, np.zeros(1),
                      FbfConfig(gamma=0.45, residual_tol=1e-12))
    n0 = clean.iterations
    noisy = fbf_solve(
        P, Q, 1.0, np.zeros(1),
        FbfConfig(gamma=0.45, residual_tol=0.0, max_iters=10 * n0,
                  errors=SummableErrorSchedule(0.1, 2.0, seed=1)),
    )
    assert abs(noisy.w[0] - clean.p[0]) <= 1e-5


def test_config_rejects_nan():
    for kwargs in ({"gamma": float("nan")}, {"epsilon": float("nan")},
                   {"residual_tol": float("nan")}, {"residual_tol": float("inf")},
                   {"gamma": 0.0},
                   {"max_iters": float("inf")}, {"max_iters": 2.5}):
        with pytest.raises(ParameterError) as exc:
            FbfConfig(**kwargs)
        assert exc.value.key == next(iter(kwargs))


def test_config_takes_an_integral_budget_in_any_type():
    for max_iters in (7, 7.0, np.int64(7)):
        assert FbfConfig(max_iters=max_iters).max_iters == 7


def kinked_pair():
    """Identity resolvent and Q(x) = k(x) + 0.5 with k of slope 0.1 on
    x >= 0 and 1 below: 1-Lipschitz, zero at x = -0.5.  A probe from x = 1
    sees only the slope 0.1, so the first step is too long for the steep
    side and the run must shrink it."""
    return scalar_pair(ZeroOperator(), lambda x: np.where(x >= 0.0, 0.1 * x, x) + 0.5)


def _rule_cases():
    """(P_resolvent, Q, chi, w0) of runs whose step comes from the
    trajectory, at least one of them with retries."""
    rng = np.random.default_rng(6)
    cases = [(*kinked_pair(), 1.0, np.ones(1))]
    for _ in range(8):
        prob = random_coupled_problem(rng)
        size = sum(prob.sig.dims_primal + prob.sig.dims_dual)
        cases.append((*prob._pair, compute_beta(prob), np.zeros(size)))
    return cases


def test_every_accepted_step_passes_tsengs_test():
    retries = 0
    for P, Q, chi, w0 in _rule_cases():
        seen = []
        cfg = FbfConfig(max_iters=400,
                        on_iteration=lambda n, w, p: seen.append((w.copy(), p.copy())))
        tr = fbf_solve(P, Q, chi, w0, cfg)
        theta = 1.0 - epsilon_for(cfg, chi)
        floor, Q = theta / chi, fresh(Q)
        for (_, gamma, _), (w, p) in zip(tr.rows, seen, strict=True):
            assert gamma == floor or gamma * _norm(Q(w) - Q(p)) <= theta * _norm(w - p)
        retries += tr.retries
    assert retries > 0


def test_the_step_starts_at_the_floor_or_above_and_never_rises():
    above = 0
    for P, Q, chi, w0 in _rule_cases():
        cfg = FbfConfig(max_iters=400)
        steps = [gamma for _, gamma, _ in fbf_solve(P, Q, chi, w0, cfg).rows]
        floor = (1.0 - epsilon_for(cfg, chi)) / chi
        assert min(steps) >= floor
        assert all(b <= a for a, b in zip(steps, steps[1:]))
        above += steps[0] > floor
    assert above > 0


def test_a_redone_iteration_keeps_its_smaller_step():
    P, Q = kinked_pair()
    tr = fbf_solve(P, Q, 1.0, np.ones(1), FbfConfig(residual_tol=1e-12))
    assert tr.converged and tr.retries >= 1
    assert tr.p[0] == pytest.approx(-0.5, abs=1e-10)
    first, last = tr.rows[0][1], tr.rows[-1][1]
    assert 0.99 <= last < first


def _constant_step_run(P, Q, gamma, w0, max_iters, errors=None):
    """The engine's loop at a constant step, the one the step from the
    trajectory leaves in place where errors are set or gamma is fixed."""
    P, Q = fresh(P), fresh(Q)
    w = w0.copy()
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            if errors is not None:
                a, b, c = (e.flat() for e in errors(n, (w.size,)))
            qw = Q(w)
            s = w - gamma * (qw if errors is None else qw + a)
            p = P(gamma, s)
            if errors is not None:
                p = p + b
            qp = Q(p)
            q = p - gamma * (qp if errors is None else qp + c)
            rows.append((n, gamma, _norm(w - p)))
            w = w - s + q
    return w, rows


@pytest.mark.parametrize("rule", ["errors", "gamma"])
def test_errors_or_a_fixed_gamma_keep_the_constant_step(rule):
    # the last problem is large enough for Anderson acceleration, which
    # runs only where the step comes from the trajectory
    rng = np.random.default_rng(8)
    for i in range(5):
        prob = random_coupled_problem(rng) if i < 4 else wide_coupled_problem(rng)
        P, Q = prob._pair
        chi = compute_beta(prob)
        w0 = rng.standard_normal(sum(prob.sig.dims_primal + prob.sig.dims_dual))
        if rule == "errors":
            errors = SummableErrorSchedule(0.05, 2.0, seed=int(rng.integers(1000)))
            gamma, cfg = 0.99 / chi, FbfConfig(errors=errors)
        else:
            errors, gamma = None, 0.5 * 0.99 / chi
            cfg = FbfConfig(gamma=gamma)
        cfg.residual_tol, cfg.max_iters = 0.0, 60
        tr = fbf_solve(P, Q, chi, w0, cfg)
        w, rows = _constant_step_run(P, Q, gamma, w0, 60, errors)
        assert tr.rows == rows and tr.retries == 0
        assert np.array_equal(tr.w, w)


# --- Anderson acceleration ------------------------------------------------------


def _wide(seed, dims_primal=(40,) * 4, dims_dual=(40,) * 4):
    return wide_coupled_problem(np.random.default_rng(seed), dims_primal, dims_dual)


def _run(prob, max_iters=150):
    """The iterates w_0..w_N of a run at the step from the trajectory and
    residual_tol 0, and its trace."""
    seen = []
    cfg = FbfConfig(max_iters=max_iters, residual_tol=0.0,
                    on_iteration=lambda n, w, p: seen.append(w.copy()))
    trace = solve_system(prob, cfg).trace
    return seen + [trace.w], trace


def _gap(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


@pytest.mark.parametrize("seed", [7, 8])
def test_accelerated_iterates_match_the_reference(seed, monkeypatch):
    # seed 8's corrections hit their cap.  The weights carry rounding
    # errors times the condition of the history's Gram matrix, so these
    # runs are ones where it stays small
    conds = []
    weights = fbf._anderson_weights
    monkeypatch.setattr(fbf, "_anderson_weights",
                        lambda gram, rhs: conds.append(np.linalg.cond(gram)) or weights(gram, rhs))
    prob = _wide(seed)
    w, trace = _run(prob)
    assert w[0].size >= fbf.AA_MIN_SIZE and max(conds) <= 1e4
    steps = [gamma for _, gamma, _ in trace.rows]
    ref = anderson_iterates(prob, steps, fbf.AA_MEMORY, fbf.AA_CAP, fbf.AA_POWER)
    assert len(w) == len(ref) == 151
    assert max(_gap(a, b) for a, b in zip(w, ref)) <= 1e-12
    assert (trace.capped > 0) == (seed == 8) and trace.cleared == trace.retries == 0


@pytest.mark.parametrize("seed", [8, 9])
def test_every_correction_stays_within_its_cap(seed):
    # the correction e_n = T(w_n) - w_{n+1}, with T the reference's map;
    # seed 9 redoes iteration 96 at a smaller step, which takes the plain
    # step T(w_96) and drops the history
    prob = _wide(seed)
    w, trace = _run(prob)
    T, n1 = system_map(prob)
    steps = [gamma for _, gamma, _ in trace.rows]
    images = [np.concatenate(T(gamma, wn[:n1], wn[n1:])) for gamma, wn in zip(steps, w)]
    eta0 = fbf.AA_CAP * np.linalg.norm(images[0] - w[0])
    at_cap = 0
    for n, image in enumerate(images):
        size, eta = np.linalg.norm(image - w[n + 1]), eta0 / (n + 1) ** fbf.AA_POWER
        slack = 1e-12 * max(1.0, np.linalg.norm(w[n + 1]))
        assert size <= eta + slack
        if n == 0 or steps[n] != steps[n - 1]:
            assert size <= slack
        at_cap += abs(size / eta - 1.0) <= 1e-9
    assert trace.capped == at_cap > 0
    assert trace.retries == trace.cleared == (seed == 9)


def test_a_correction_of_the_wrong_sign_still_converges(monkeypatch):
    # the sum of the caps is finite, so the run converges; but a correction
    # that is wrong every time is capped every time, and the residual then
    # falls only as fast as the cap, about as n^-1.1 (2715 iterations to
    # 1e-3 here, where the right sign takes 75 to 1e-9)
    prob = _wide(7)
    clean = solve_system(prob, FbfConfig())
    weights = fbf._anderson_weights
    monkeypatch.setattr(fbf, "_anderson_weights", lambda gram, rhs: -weights(gram, rhs))
    report = solve_system(prob, FbfConfig(residual_tol=1e-3))
    assert report.converged and report.trace.capped >= report.trace.iterations - 10
    assert max(report.kkt) <= 1e-2
    assert _gap(report.trace.w, clean.trace.w) <= 1e-2


@pytest.mark.parametrize("failure", ["singular", "nan"])
def test_a_failed_correction_takes_the_plain_step(failure, monkeypatch):
    prob = _wide(7)
    monkeypatch.setattr(fbf, "AA_MIN_SIZE", math.inf)
    plain, plain_trace = _run(prob, 60)
    monkeypatch.undo()
    calls = []

    def weights(gram, rhs):
        calls.append(1)
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(len(rhs), np.nan)

    monkeypatch.setattr(fbf, "_anderson_weights", weights)
    w, trace = _run(prob, 60)
    assert all(np.array_equal(a, b) for a, b in zip(w, plain, strict=True))
    assert trace.rows == plain_trace.rows and trace.capped == 0
    assert trace.cleared == len(calls) == 59


@pytest.mark.parametrize("dims_dual", [(64, 63), (64, 64)])
def test_the_acceleration_starts_at_aa_min_size(dims_dual, monkeypatch):
    # product spaces of 255 and 256 entries
    prob = _wide(3, (64, 64), dims_dual)
    below = sum((64, 64) + dims_dual) < fbf.AA_MIN_SIZE
    w, trace = _run(prob, 60)
    monkeypatch.setattr(fbf, "AA_MIN_SIZE", math.inf)
    plain, plain_trace = _run(prob, 60)
    same = all(np.array_equal(a, b) for a, b in zip(w, plain, strict=True))
    assert same == below == (trace.rows == plain_trace.rows)

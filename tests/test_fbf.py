import numpy as np
import pytest

from pdsplit import (
    Box,
    FbfConfig,
    NormalCone,
    ParameterError,
    Point,
    SummableErrorSchedule,
    ZeroOperator,
    fbf_solve,
)
from pdsplit.demos import DEMO_NAMES, get_demo
from pdsplit.fbf import gamma_for
from pdsplit.probfile import build_problem, parse_problem


def scalar_pair(P, q):
    """A 1-D operator and a scalar map as the engine's callables."""
    return P.resolvent, q


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
    # 9703x per iteration; the residual of iteration 39 overflows
    P, Q = scalar_pair(ZeroOperator(), lambda x: 10.0 * x)
    tr = fbf_solve(P, Q, 0.1, np.ones(1), FbfConfig(residual_tol=0.0))
    assert tr.stop_reason == "diverged" and not tr.converged
    assert tr.iterations == 40 and tr.rows[-1][0] == 39
    assert np.isfinite(tr.w).all()


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
    P = lambda gamma, s: np.full(1, 1e10)
    tr = fbf_solve(P, lambda w: 1e300 * w, 1.0, np.ones(1), FbfConfig(residual_tol=0.0))
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

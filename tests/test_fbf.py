import numpy as np
import pytest

from pdsplit import (
    BlockVector,
    Box,
    FbfConfig,
    NormalCone,
    ParameterError,
    Point,
    SummableErrorSchedule,
    ZeroOperator,
    fbf_solve,
)
from pdsplit.fbf import gamma_for


def scalar_pair(P, q):
    """Wrap a 1-D operator and a scalar map as product-space callables."""
    P_res = lambda gamma, w: BlockVector([P.resolvent(gamma, w[0])])
    Q = lambda w: BlockVector([q(w[0])])
    return P_res, Q


def test_converges_to_interval_stationary_point():
    # zero of N_[-1,1] + (x - 2) is the right endpoint 1
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    cfg = FbfConfig(gamma=0.45, residual_tol=1e-12)
    tr = fbf_solve(P, Q, 1.0, BlockVector([[0.0]]), cfg)
    assert tr.converged
    assert tr.p[0][0] == pytest.approx(1.0, abs=1e-9)


def test_zero_problem_stops_immediately():
    P, Q = scalar_pair(ZeroOperator(), lambda x: 0.0 * x)
    w0 = BlockVector([[2.0, -3.0]])
    tr = fbf_solve(P, Q, 1.0, w0, FbfConfig())
    assert tr.converged and tr.iterations == 1
    assert tr.rows[0][2] == 0.0
    assert (tr.w - w0).norm() == 0.0


def test_singleton_resolvent_pins_iterate():
    P, Q = scalar_pair(NormalCone(Point([0.0])), lambda x: np.cos(x))
    tr = fbf_solve(P, Q, 1.0, BlockVector([[3.0]]), FbfConfig())
    assert tr.converged
    assert abs(tr.p[0][0]) <= 1e-8


def test_fejer_monotone_toward_solution():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    iterates = []
    cfg = FbfConfig(gamma=0.45, residual_tol=0.0, max_iters=200,
                    on_iteration=lambda n, w, p: iterates.append(w.copy()))
    tr = fbf_solve(P, Q, 1.0, BlockVector([[0.0]]), cfg)
    iterates.append(tr.w)
    wbar = BlockVector([[1.0]])
    dists = [(w - wbar).norm() for w in iterates]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9


def test_gamma_range_robustness():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    eps = 1e-2
    limits = []
    for g in (eps, 0.5 * (1 - eps), (1 - eps)):
        cfg = FbfConfig(epsilon=eps, gamma=g, residual_tol=1e-12)
        tr = fbf_solve(P, Q, 1.0, BlockVector([[0.0]]), cfg)
        assert tr.converged
        limits.append(tr.p[0][0])
    assert np.ptp(limits) <= 1e-6


def test_square_summable_residuals():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    cfg = FbfConfig(gamma=0.45, residual_tol=0.0, max_iters=300)
    tr = fbf_solve(P, Q, 1.0, BlockVector([[0.0]]), cfg)
    sq = np.array([resid for _, _, resid in tr.rows]) ** 2
    assert np.isfinite(sq.sum())
    n = len(sq)
    assert sq[-n // 10 :].sum() < sq[: n // 10].sum()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_iteration():
    # declare a wildly wrong Lipschitz constant so the step expands by
    # 9703x per iteration; the update of iteration 77 overflows
    P, Q = scalar_pair(ZeroOperator(), lambda x: 10.0 * x)
    tr = fbf_solve(P, Q, 0.1, BlockVector([[1.0]]), FbfConfig(residual_tol=0.0))
    assert tr.stop_reason == "diverged" and not tr.converged
    assert tr.iterations == 78 and tr.rows[-1][0] == 77
    assert tr.w.is_finite()


def test_chi_and_epsilon_validation():
    P, Q = scalar_pair(ZeroOperator(), lambda x: x)
    with pytest.raises(ParameterError):
        fbf_solve(P, Q, 0.0, BlockVector([[1.0]]), FbfConfig())
    with pytest.raises(ParameterError):
        # epsilon must stay below 1/(chi+1)
        fbf_solve(P, Q, 1.0, BlockVector([[1.0]]), FbfConfig(epsilon=0.6))


def test_gamma_for_validates_range():
    cfg = FbfConfig(epsilon=1e-2)
    assert gamma_for(cfg, 2.0, 0) == pytest.approx((1 - 1e-2) / 2.0)
    with pytest.raises(ParameterError):
        gamma_for(FbfConfig(gamma=5.0), 2.0, 0)
    with pytest.raises(ParameterError):
        gamma_for(FbfConfig(gamma=1e-4), 2.0, 0)


def test_error_schedule_zero_eta():
    s = SummableErrorSchedule(0.0, 2.0)
    a, b, c = s(5, (2, 3))
    assert a.norm() == b.norm() == c.norm() == 0.0


def test_error_schedule_partial_sum_bound():
    s = SummableErrorSchedule(1.0, 2.0)
    partial = sum(s.norm_at(n) for n in range(100000))
    assert partial <= np.pi ** 2 / 6


def test_error_schedule_determinism():
    s1 = SummableErrorSchedule(0.5, 1.5, seed=9)
    s2 = SummableErrorSchedule(0.5, 1.5, seed=9)
    for n in range(10):
        for slot in range(3):
            d = s1.vec(n, slot, (2, 2)) - s2.vec(n, slot, (2, 2))
            assert d.norm() == 0.0


def test_error_schedule_rejects_non_summable():
    with pytest.raises(ParameterError):
        SummableErrorSchedule(1.0, 1.0)
    with pytest.raises(ParameterError):
        SummableErrorSchedule(-1.0, 2.0)


def test_error_robustness_same_limit():
    P, Q = scalar_pair(NormalCone(Box([-1.0], [1.0])), lambda x: x - 2.0)
    clean = fbf_solve(P, Q, 1.0, BlockVector([[0.0]]),
                      FbfConfig(gamma=0.45, residual_tol=1e-12))
    n0 = clean.iterations
    noisy = fbf_solve(
        P, Q, 1.0, BlockVector([[0.0]]),
        FbfConfig(gamma=0.45, residual_tol=0.0, max_iters=10 * n0,
                  errors=SummableErrorSchedule(0.1, 2.0, seed=1)),
    )
    assert abs(noisy.w[0][0] - clean.p[0][0]) <= 1e-5


def test_config_rejects_nan():
    for kwargs in ({"gamma": float("nan")}, {"epsilon": float("nan")},
                   {"residual_tol": float("nan")}, {"gamma": 0.0}):
        with pytest.raises(ParameterError):
            FbfConfig(**kwargs)

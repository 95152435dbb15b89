"""Runtime self-check: the library's core invariants as executable
properties, each returning a pass/fail row.

Used by the ``selftest`` CLI subcommand.  A check that raises reports a
failed row with the exception, so one broken property never hides the
others.
"""

from __future__ import annotations

import numpy as np

from .blocks import (
    BlockLinearOp,
    BlockVector,
    SpaceSig,
    apply_adjoint,
    apply_block,
    lambda_power_iteration,
)
from .fbf import SummableErrorSchedule
from .operators import (
    AffineOperator,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    IndicatorFunction,
    L1Norm,
    NormalCone,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    SquaredNorm,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
)
from .system import CoupledInclusionProblem, product_space_pair

__all__ = ["run_selftest"]


def _random_grid(rng):
    m, K = 2, 2
    dp = tuple(int(rng.integers(1, 4)) for _ in range(m))
    dd = tuple(int(rng.integers(1, 4)) for _ in range(K))
    sig = SpaceSig(dp, dd)
    entries = [
        [rng.standard_normal((dd[k], dp[i])) for i in range(m)] for k in range(K)
    ]
    return BlockLinearOp(entries, sig)


def _check_adjoint(rng):
    worst = 0.0
    for _ in range(100):
        L = _random_grid(rng)
        x = rng.standard_normal(sum(L.sig.dims_primal))
        v = rng.standard_normal(sum(L.sig.dims_dual))
        lhs = float(apply_block(L, x) @ v)
        rhs = float(x @ apply_adjoint(L, v))
        scale = 1.0 + np.linalg.norm(x) * np.linalg.norm(v)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst <= 1e-10, f"max scaled defect {worst:.3e}"


def _check_norm_bound(rng):
    worst = 0.0
    for _ in range(100):
        L = _random_grid(rng)
        for lam in (L.lambda_bound, lambda_power_iteration(L)):
            x = rng.standard_normal(sum(L.sig.dims_primal))
            lhs = np.linalg.norm(apply_block(L, x)) ** 2
            rhs = lam * np.linalg.norm(x) ** 2 * (1 + 1e-10)
            worst = max(worst, lhs - rhs)
    return worst <= 0.0, f"max bound excess {worst:.3e}"


def _catalog_resolvents(rng, d):
    M = rng.standard_normal((d, d))
    ops = [
        ZeroOperator(),
        ScaledIdentity(1.3),
        AffineOperator(M @ M.T / d + 0.1 * np.eye(d)),
        NormalCone(Box(-np.ones(d), np.ones(d))),
        NormalCone(Ball(np.zeros(d), 1.0)),
        NormalCone(Halfspace(np.ones(d), 1.0)),
        NormalCone(Point(np.zeros(d))),
        L1Norm(0.7).subdifferential(),
        QuadraticDistance(np.ones(d)).subdifferential(),
        SquaredNorm(0.4).subdifferential(),
    ]
    return ops


def _check_firm(rng):
    worst = -np.inf
    d = 3
    for op in _catalog_resolvents(rng, d):
        for _ in range(100):
            gamma = float(rng.uniform(0.1, 3.0))
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            jx, jy = op.resolvent(gamma, x), op.resolvent(gamma, y)
            diff = jx - jy
            lhs = float(diff @ diff)
            rhs = float((x - y) @ diff)
            worst = max(worst, lhs - rhs)
    return worst <= 1e-10, f"max firmness defect {worst:.3e}"


def _check_moreau(rng):
    """Max Fenchel-Young defect |f(p) + f*(q) - <p, q>| / (1 + |<p, q>|),
    p = prox_{gamma f}(x) and q = (x - p) / gamma.  It reads the function's
    own value and conjugate, independent formulas, and is zero only where q
    is a subgradient at p."""
    d = 3
    fns = [ZeroFunction(), L1Norm(1.0), QuadraticDistance(np.ones(d)), SquaredNorm(0.5)]
    fns += [IndicatorFunction(cset) for cset in (
        Box(-np.ones(d), np.ones(d)), Ball(np.zeros(d), 1.0), Halfspace(np.ones(d), 1.0),
        Hyperplane(np.ones(d), 0.5), Point(np.zeros(d)))]
    defects = []                        # np.max keeps a NaN, which fails the row
    for fn in fns:
        for _ in range(100):
            gamma = float(rng.uniform(0.1, 3.0))
            x = rng.standard_normal(d)
            p = fn.prox(gamma, x)
            q = (x - p) / gamma
            pq = float(p @ q)
            defects.append(abs(fn(p) + fn.conjugate(q) - pq) / (1.0 + abs(pq)))
    worst = float(np.max(defects))
    return worst <= 1e-12, f"max Fenchel-Young defect {worst:.3e}"


def _dual_step(B, r, gamma, x):
    """J_{gamma (r + B^{-1})}(x) as every solve takes it: the dual block of
    P_resolvent(gamma, w - gamma Q(w)) at w = (0, x), for the pair of a
    one-block system with no coupling, zero A, C and Dinv, and the shift r."""
    d = len(x)
    sig = SpaceSig((d,), (d,))
    prob = CoupledInclusionProblem(sig, [ZeroOperator()], [ZeroMap()], [B], [ZeroMap()],
                                   BlockLinearOp({}, sig), BlockVector.zeros((d,)),
                                   BlockVector([r]))
    P_resolvent, Q = product_space_pair(prob)
    w = np.concatenate((np.zeros(d), x))
    return P_resolvent(gamma, w - gamma * Q(w, np.empty(2 * d)), np.empty(2 * d))[d:]


def _check_shifted_inverse(rng):
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.2, 2.0))
        x, r = rng.standard_normal(3), rng.standard_normal(3)
        # linear case: inverse of c*Id is Id/c, direct resolvent in closed form
        got = _dual_step(ScaledIdentity(c), r, gamma, x)
        want = (x - gamma * r) / (1.0 + gamma / c)
        worst = max(worst, float(np.max(np.abs(got - want))))
        # inverse of the normal cone of {0} is the zero map
        got = _dual_step(NormalCone(Point(np.zeros(3))), r, gamma, x)
        worst = max(worst, float(np.max(np.abs(got - (x - gamma * r)))))
    return worst <= 1e-10, f"max identity defect {worst:.3e}"


def _check_yosida(rng):
    """The Yosida map Y(x) = (x - J_{gamma B} x) / gamma of the l1
    subdifferential B, through the solver's dual step at r = 0: by Moreau's
    identity it is J_{(1/gamma) B^{-1}}(x / gamma).  Y is
    (1/gamma)-Lipschitz, and Y(x) lies in B(x - gamma Y(x)), tested at unit
    step as p = J_B(p + u).  The bound holds for (x - J_{s B} x) / gamma at
    any step s; the membership fails at a wrong one, since B, unlike a
    normal cone, is not scale-invariant."""
    worst = defect = 0.0
    B = L1Norm(0.7).subdifferential()
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 3.0))
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        yx, yy = (_dual_step(B, np.zeros(3), 1.0 / gamma, t / gamma) for t in (x, y))
        bound = np.linalg.norm(x - y) / gamma * (1 + 1e-10)
        worst = max(worst, float(np.linalg.norm(yx - yy)) - bound)
        p = x - gamma * yx
        defect = max(defect, float(np.linalg.norm(p - B.resolvent(1.0, p + yx))))
    return (worst <= 0.0 and defect <= 1e-10,
            f"max Lipschitz excess {worst:.3e}, max graph defect {defect:.3e}")


def _check_error_schedule(rng):
    s1 = SummableErrorSchedule(1.0, 2.0, seed=11)
    s2 = SummableErrorSchedule(1.0, 2.0, seed=11)
    same, slip = True, 0.0
    for n in range(20):
        for slot in range(3):
            e = s1.vec(n, slot, (2, 3)).flat()
            same &= np.array_equal(e, s2.vec(n, slot, (2, 3)).flat())
            slip = max(slip, abs(np.linalg.norm(e) / s1.norm_at(n) - 1.0))
    partial = sum(s1.norm_at(n) for n in range(100000))
    return (
        same and slip <= 1e-15 and partial <= np.pi ** 2 / 6,
        f"deterministic={same}, norm slip {slip:.1e}, partial sum {partial:.4f}",
    )


_CHECKS = (
    ("adjoint_identity", _check_adjoint),
    ("norm_bound_validity", _check_norm_bound),
    ("firm_nonexpansiveness", _check_firm),
    ("moreau_identity", _check_moreau),
    ("shifted_inverse_resolvent_identity", _check_shifted_inverse),
    ("yosida_lipschitz", _check_yosida),
    ("error_schedule_determinism", _check_error_schedule),
)


def run_selftest(seed=0):
    """Run every property; returns a list of (name, passed, detail)."""
    rows = []
    for name, fn in _CHECKS:
        rng = np.random.default_rng(seed)
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        rows.append((name, bool(passed), detail))
    return rows

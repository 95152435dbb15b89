"""Error-tolerant forward-backward-forward iteration.

Generic Tseng-type splitting for zeros of P + Q, where P is maximally
monotone (accessed through its resolvent) and Q is monotone and
chi-Lipschitzian.  Each iteration makes two forward evaluations of Q and one
backward (resolvent) step, and tolerates absolutely summable perturbations
in all three evaluations.

A run reports through one record.  The trace holds the Lipschitz bound
chi the step came from, a row (n, gamma, ||w_n - p_n||) per iteration,
and a stop reason: "converged", "max_iters" or "diverged".  A caller that
needs more, such as the iterates or the residual split into blocks, sets
``FbfConfig.on_iteration``; it is called once per iteration and costs
nothing when left unset.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockVector
from .operators import ParameterError

__all__ = [
    "FbfConfig",
    "FbfTrace",
    "SummableErrorSchedule",
    "fbf_solve",
    "gamma_for",
]

DEFAULT_EPSILON = 1e-2
DEFAULT_MAX_ITERS = 200000
DEFAULT_RESIDUAL_TOL = 1e-9


class SummableErrorSchedule:
    """Deterministic perturbation sequence with norms eta / (n+1)^p.

    For p > 1 the norms are absolutely summable, which is exactly the
    perturbation regime under which convergence is retained.  Directions are
    pseudo-random but fully determined by (seed, slot, n), so the same
    schedule can be replayed or split across sub-blocks consistently.
    """

    def __init__(self, eta, p, seed=0):
        if not eta >= 0:
            raise ParameterError(f"eta must be nonnegative, got {eta}", "eta")
        if not p > 1:
            raise ParameterError(f"p must exceed 1 for summability, got {p}", "p")
        if not (float(seed).is_integer() and seed >= 0):
            raise ParameterError(f"seed must be a nonnegative integer, got {seed}", "seed")
        self.eta = float(eta)
        self.p = float(p)
        self.seed = int(seed)

    def norm_at(self, n):
        return self.eta / float(n + 1) ** self.p

    def vec(self, n, slot, dims):
        """Error vector for iteration n and slot (0=a, 1=b, 2=c)."""
        dims = tuple(int(d) for d in dims)
        if self.eta == 0.0:
            return BlockVector.zeros(dims)
        rng = np.random.default_rng((self.seed, slot, n))
        flat = rng.standard_normal(sum(dims))
        nrm = np.linalg.norm(flat)
        if nrm == 0.0:
            flat[0] = 1.0
            nrm = 1.0
        flat *= self.norm_at(n)                 # in place: the same two roundings
        flat /= nrm
        return BlockVector.wrap(flat, dims)

    def __call__(self, n, dims):
        return tuple(self.vec(n, slot, dims) for slot in range(3))


class FbfConfig:
    """Iteration parameters.

    gamma fixes a constant step; without it the largest admissible step
    (1 - epsilon)/chi is used.  errors, when set, must produce absolutely
    summable perturbation triples (a_n, b_n, c_n).  on_iteration(n, w_n,
    p_n), when set, is called once per iteration, after the trace row is
    recorded and before the stopping test; it must not modify w_n or p_n.
    """

    def __init__(
        self,
        epsilon=DEFAULT_EPSILON,
        gamma=None,
        max_iters=DEFAULT_MAX_ITERS,
        residual_tol=DEFAULT_RESIDUAL_TOL,
        errors=None,
        on_iteration=None,
    ):
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}", "epsilon")
        if gamma is not None and not gamma > 0:
            raise ParameterError(f"gamma must be positive, got {gamma}", "gamma")
        if not max_iters >= 1:
            raise ParameterError(f"max_iters must be >= 1, got {max_iters}", "max_iters")
        if not residual_tol >= 0:
            raise ParameterError(
                f"residual_tol must be nonnegative, got {residual_tol}", "residual_tol")
        self.epsilon = float(epsilon)
        self.gamma = None if gamma is None else float(gamma)
        self.max_iters = int(max_iters)
        self.residual_tol = float(residual_tol)
        self.errors = errors
        self.on_iteration = on_iteration

    def check_against(self, chi):
        if self.epsilon >= 1.0 / (chi + 1.0):
            raise ParameterError(
                f"epsilon {self.epsilon} must be below 1/(chi+1) = {1.0 / (chi + 1.0)}",
                "epsilon",
            )


def gamma_for(cfg, chi, n):
    """Step size for iteration n, validated against [epsilon, (1-epsilon)/chi].
    The step is constant: cfg.gamma, or else the upper end of that range."""
    hi = (1.0 - cfg.epsilon) / chi
    g = hi if cfg.gamma is None else cfg.gamma
    if not cfg.epsilon <= g <= hi * (1 + 1e-12):
        raise ParameterError(
            f"gamma {g} at iteration {n} outside [{cfg.epsilon}, {hi}]", "gamma"
        )
    return g


class FbfTrace:
    """The record of one run: the Lipschitz bound chi the step came from, a
    row (n, gamma, ||w_n - p_n||) per iteration, the last finite iterate w
    with its resolvent point p, and the stop reason ("converged",
    "max_iters" or "diverged")."""

    def __init__(self, chi):
        self.chi = chi
        self.rows = []
        self.w = None
        self.p = None
        self.stop_reason = None

    @property
    def iterations(self):
        return len(self.rows)

    @property
    def converged(self):
        return self.stop_reason == "converged"


def fbf_solve(P_resolvent, Q, chi, w0, cfg):
    """Run the error-tolerant iteration until the relative fixed-point
    residual ||w_n - p_n|| / max(1, ||w_n||) drops below the tolerance
    ("converged"), the budget runs out ("max_iters"), or an update is not
    finite ("diverged", keeping the last finite iterate).

    P_resolvent(gamma, w) evaluates the resolvent of the set-valued part; Q(w)
    the single-valued part.  chi must upper-bound Q's Lipschitz constant.
    """
    if not chi > 0:
        raise ParameterError(f"chi must be positive, got {chi}")
    cfg.check_against(chi)

    trace = FbfTrace(chi)
    w = p = w0.copy()
    dims = w.dims
    stop = "max_iters"
    for n in range(cfg.max_iters):
        # looked up once per iteration: bench/run.py wraps it as its clock
        gamma = gamma_for(cfg, chi, n)
        if cfg.errors is not None:
            a, b, c = cfg.errors(n, dims)
        else:
            a = b = c = None

        qw = Q(w)
        s = w - gamma * (qw if a is None else qw + a)
        p = P_resolvent(gamma, s)
        if b is not None:
            p = p + b
        qp = Q(p)
        q = p - gamma * (qp if c is None else qp + c)

        resid = (w - p).norm()
        trace.rows.append((n, gamma, resid))
        if cfg.on_iteration is not None:
            cfg.on_iteration(n, w, p)
        if resid <= cfg.residual_tol * max(1.0, w.norm()):
            stop = "converged"
            break
        w_next = w - s + q
        if not w_next.is_finite():
            stop = "diverged"
            break
        w = w_next

    trace.w, trace.p, trace.stop_reason = w, p, stop
    return trace

"""Error-tolerant forward-backward-forward iteration.

Generic Tseng-type splitting for zeros of P + Q, where P is maximally
monotone (accessed through its resolvent) and Q is monotone and
chi-Lipschitzian.  Each iteration makes two forward evaluations of Q and one
backward (resolvent) step, and tolerates absolutely summable perturbations
in all three evaluations.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockVector
from .operators import ParameterError

__all__ = [
    "FbfConfig",
    "FbfTrace",
    "SummableErrorSchedule",
    "DivergenceError",
    "fbf_solve",
    "gamma_for",
]

DEFAULT_EPSILON = 1e-2
DEFAULT_MAX_ITERS = 200000
DEFAULT_RESIDUAL_TOL = 1e-9


class DivergenceError(RuntimeError):
    """An iterate became non-finite; the message names the iteration."""


class SummableErrorSchedule:
    """Deterministic perturbation sequence with norms eta / (n+1)^p.

    For p > 1 the norms are absolutely summable, which is exactly the
    perturbation regime under which convergence is retained.  Directions are
    pseudo-random but fully determined by (seed, slot, n), so the same
    schedule can be replayed or split across sub-blocks consistently.
    """

    def __init__(self, eta, p, seed=0):
        if eta < 0:
            raise ParameterError("eta must be nonnegative")
        if not p > 1:
            raise ParameterError(f"p must exceed 1 for summability, got {p}")
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
        return BlockVector.wrap(self.norm_at(n) * flat / nrm, dims)

    def __call__(self, n, dims):
        return tuple(self.vec(n, slot, dims) for slot in range(3))


class FbfConfig:
    """Iteration parameters.

    gamma fixes a constant step; gamma_schedule(n) overrides it per
    iteration.  With neither given, the largest admissible constant step
    (1 - epsilon)/chi is used.  errors, when set, must produce absolutely
    summable perturbation triples (a_n, b_n, c_n).
    """

    def __init__(
        self,
        epsilon=DEFAULT_EPSILON,
        gamma=None,
        gamma_schedule=None,
        max_iters=DEFAULT_MAX_ITERS,
        residual_tol=DEFAULT_RESIDUAL_TOL,
        errors=None,
        keep_iterates=False,
        kkt_every=0,
    ):
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
        if gamma is not None and not gamma > 0:
            raise ParameterError(f"gamma must be positive, got {gamma}")
        if not max_iters >= 1:
            raise ParameterError("max_iters must be >= 1")
        if not residual_tol >= 0:
            raise ParameterError("residual_tol must be nonnegative")
        self.epsilon = float(epsilon)
        self.gamma = None if gamma is None else float(gamma)
        self.gamma_schedule = gamma_schedule
        self.max_iters = int(max_iters)
        self.residual_tol = float(residual_tol)
        self.errors = errors
        self.keep_iterates = bool(keep_iterates)
        self.kkt_every = int(kkt_every)

    def check_against(self, chi):
        if self.epsilon >= 1.0 / (chi + 1.0):
            raise ParameterError(
                f"epsilon {self.epsilon} must be below 1/(chi+1) = {1.0 / (chi + 1.0)}"
            )


def gamma_for(cfg, chi, n):
    """Step size for iteration n, validated against [epsilon, (1-epsilon)/chi]."""
    hi = (1.0 - cfg.epsilon) / chi
    if cfg.gamma_schedule is not None:
        g = float(cfg.gamma_schedule(n))
    elif cfg.gamma is not None:
        g = cfg.gamma
    else:
        g = hi
    if not cfg.epsilon <= g <= hi * (1 + 1e-12):
        raise ParameterError(
            f"gamma {g} at iteration {n} outside [{cfg.epsilon}, {hi}]"
        )
    return g


class FbfTrace:
    """Per-iteration diagnostics of one run."""

    def __init__(self):
        self.rows = []  # (n, gamma, ||w_n - p_n||)
        self.w = None
        self.p = None
        self.converged = False
        self.iterations = 0
        self.iterates = None  # populated when keep_iterates is set

    def residuals(self):
        return np.array([r[2] for r in self.rows])


def fbf_solve(P_resolvent, Q, chi, w0, cfg, callback=None):
    """Run the error-tolerant iteration until the relative fixed-point
    residual ||w_n - p_n|| / max(1, ||w_n||) drops below the tolerance.

    P_resolvent(gamma, w) evaluates the resolvent of the set-valued part; Q(w)
    the single-valued part.  chi must upper-bound Q's Lipschitz constant.
    callback(n, w_n, p_n), when given, runs once per iteration, after the
    residual is recorded and before the stopping test.
    """
    if not chi > 0:
        raise ParameterError(f"chi must be positive, got {chi}")
    cfg.check_against(chi)

    trace = FbfTrace()
    w = w0.copy()
    dims = w.dims
    if cfg.keep_iterates:
        trace.iterates = [w.copy()]

    p = w
    for n in range(cfg.max_iters):
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
        if callback is not None:
            callback(n, w, p)
        if resid <= cfg.residual_tol * max(1.0, w.norm()):
            trace.w = w
            trace.p = p
            trace.converged = True
            trace.iterations = n + 1
            return trace

        w = w - s + q
        if not w.is_finite():
            raise DivergenceError(f"non-finite iterate at iteration {n}")
        if cfg.keep_iterates:
            trace.iterates.append(w.copy())

    trace.w = w
    trace.p = p
    trace.converged = False
    trace.iterations = cfg.max_iters
    return trace

"""Error-tolerant forward-backward-forward iteration.

Generic Tseng-type splitting for zeros of P + Q, where P is maximally
monotone (accessed through its resolvent) and Q is monotone and
chi-Lipschitzian.  Each iteration makes two forward evaluations of Q and one
backward (resolvent) step, and tolerates absolutely summable perturbations
in all three evaluations.

Where the step comes from the trajectory and the product space has at
least AA_MIN_SIZE entries, each iteration is also accelerated: type-II
Anderson acceleration of the iteration map, written as one more error of
the error-tolerant iteration and capped by a summable sequence, so that
the convergence theory still covers it (``fbf_solve``).

A run reports through one record.  The trace holds the Lipschitz bound
chi the step came from, a row (n, gamma, ||w_n - p_n||) per iteration,
the number of iterations redone at a smaller step, the counts of capped
Anderson corrections and of dropped Anderson histories, and a stop
reason: "converged", "max_iters" or "diverged".  A caller that
needs more, such as the iterates or the residual split into blocks, sets
``FbfConfig.on_iteration``; it is called once per iteration and costs
nothing when left unset.

The engine iterates on one flat vector: w0, what P_resolvent and Q take
and return, trace.w, trace.p and the hook's arguments are 1-D arrays.
"""

from __future__ import annotations

import math

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
# sigma of the first step from the trajectory, theta / (sigma l0): l0 is a
# local ratio, and Q's ratios further along the path may exceed it.  Of the
# values scanned from 1 to 3, 1.75 is the smallest at which no dense_grid
# seed from 1 to 11 redid an iteration, which would re-invert its affine
# resolvents on every solve
STEP_SAFETY = 1.75
# Anderson acceleration of the step from the trajectory (fbf_solve): the
# number of differences kept, the cap c0 ||T(w0) - w0|| (n+1)^-p on the
# correction of iteration n, and the smallest product space it runs on.
# Below that size the update's fixed cost, ~17 us alone and ~30 us inside
# a solve, is over half of an iteration: on 85- and 127-entry systems it
# cut iterations 5x and 2x but added 55-60% to each iteration's time
AA_MEMORY = 10
AA_CAP = 10.0
AA_POWER = 1.1
AA_MIN_SIZE = 256


class SummableErrorSchedule:
    """Deterministic perturbation sequence with norms eta / (n+1)^p.

    For p > 1 the norms are absolutely summable, which is exactly the
    perturbation regime under which convergence is retained: the theorem
    asks only that the sums of ||a_n||, ||b_n|| and ||c_n|| be finite, and
    says nothing of where the errors point.  So each draw takes its
    direction uniformly from the cube [-1/2, 1/2)^d, the cheapest draw
    numpy makes, and is scaled to norm exactly eta / (n+1)^p.  Directions
    are pseudo-random but fully determined by (seed, slot, n), so the same
    schedule can be replayed or split across sub-blocks consistently.

    A draw into a given flat array has the values of a draw into a new one.
    """

    def __init__(self, eta, p, seed=0):
        if not 0 <= eta < math.inf:
            raise ParameterError(f"eta must be finite and nonnegative, got {eta}", "eta")
        if not p > 1:
            raise ParameterError(f"p must exceed 1 for summability, got {p}", "p")
        if not (float(seed).is_integer() and seed >= 0):
            raise ParameterError(f"seed must be a nonnegative integer, got {seed}", "seed")
        self.eta = float(eta)
        self.p = float(p)
        self.seed = int(seed)

    def norm_at(self, n):
        return self.eta / float(n + 1) ** self.p

    def vec(self, n, slot, dims, out=None):
        """Error vector for iteration n and slot (0=a, 1=b, 2=c), in out or new."""
        dims = tuple(int(d) for d in dims)
        flat = np.empty(sum(dims)) if out is None else out
        np.random.default_rng((self.seed, slot, n)).random(out=flat)
        flat -= 0.5
        nrm = np.linalg.norm(flat)
        if nrm == 0.0:
            flat[0] = 1.0
            nrm = 1.0
        flat *= self.norm_at(n)                 # in place: the same two roundings
        flat /= nrm
        return BlockVector.wrap(flat, dims)

    def __call__(self, n, dims, out=(None,) * 3):
        """(a_n, b_n, c_n), slot j drawn into out[j] where given."""
        return tuple(self.vec(n, slot, dims, buf) for slot, buf in enumerate(out))


class FbfConfig:
    """Iteration parameters.

    gamma fixes a constant step; ``gamma_for`` checks it against chi.
    errors(n, dims, out), when set, must give absolutely summable triples
    (a_n, b_n, c_n) over the whole vector, drawn into out; the step is
    then the constant (1 - epsilon)/chi, as the error theorem needs.  With
    neither, the step comes from the trajectory (``fbf_solve``): it starts
    at or above (1 - epsilon)/chi, never rises, and shrinks, never below
    that floor, only where gamma_n ||Q w_n - Q p_n|| <= (1 - epsilon)
    ||w_n - p_n|| fails (Tseng's test).  Then, and only then, a run whose
    w0 has at least AA_MIN_SIZE entries is Anderson-accelerated; no option
    turns that on or off.
    epsilon, when None, is min(DEFAULT_EPSILON, 1/(2(chi+1))), below the
    1/(chi+1) the theorem needs at every chi (``epsilon_for``).
    on_iteration(n, w_n, p_n), when set, is called once per iteration,
    after the trace row is recorded and before the stopping test, with
    numpy's overflow and invalid-value warnings off, as the whole loop
    runs; it must not modify w_n or p_n, and copies what it keeps: the run
    writes both arrays again in the next iteration (``fbf_solve``).
    """

    def __init__(
        self,
        epsilon=None,
        gamma=None,
        max_iters=DEFAULT_MAX_ITERS,
        residual_tol=DEFAULT_RESIDUAL_TOL,
        errors=None,
        on_iteration=None,
    ):
        if epsilon is not None and not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}", "epsilon")
        if gamma is not None and not gamma > 0:
            raise ParameterError(f"gamma must be positive, got {gamma}", "gamma")
        if not (1 <= max_iters < math.inf and max_iters % 1 == 0):
            raise ParameterError(
                f"max_iters must be a positive integer, got {max_iters}", "max_iters")
        if not 0 <= residual_tol < math.inf:     # every finite residual is <= inf
            raise ParameterError(f"residual_tol must be finite and nonnegative, "
                                 f"got {residual_tol}", "residual_tol")
        self.epsilon = None if epsilon is None else float(epsilon)
        self.gamma = None if gamma is None else float(gamma)
        self.max_iters = int(max_iters)
        self.residual_tol = float(residual_tol)
        self.errors = errors
        self.on_iteration = on_iteration


def epsilon_for(cfg, chi):
    """cfg.epsilon, or by default the smaller of 1e-2 and 1/(2(chi+1))."""
    return min(DEFAULT_EPSILON, 0.5 / (chi + 1.0)) if cfg.epsilon is None else cfg.epsilon


def gamma_for(cfg, chi, n):
    """Step size for iteration n, constant: cfg.gamma, or else (1-epsilon)/chi,
    the floor of a step taken from the trajectory.
    The one check of epsilon < 1/(chi+1) (ParameterError keyed "epsilon")
    and of the step in [epsilon, (1-epsilon)/chi] (keyed "gamma")."""
    eps = epsilon_for(cfg, chi)
    if eps >= 1.0 / (chi + 1.0):
        raise ParameterError(f"epsilon {eps} must be below 1/(chi+1) = "
                             f"{1.0 / (chi + 1.0)}", "epsilon")
    hi = (1.0 - eps) / chi
    g = hi if cfg.gamma is None else cfg.gamma
    if not eps <= g <= hi * (1 + 1e-12):
        raise ParameterError(f"gamma {g} at iteration {n} outside [{eps}, {hi}]", "gamma")
    return g


class FbfTrace:
    """The record of one run: the Lipschitz bound chi the step came from, a
    row (n, gamma, ||w_n - p_n||) per accepted iteration, how many times an
    iteration was redone at a smaller step (retries), how many Anderson
    corrections were scaled down to their cap eta_n (capped), how many
    times a nonempty Anderson history was dropped, at a redone iteration, a
    singular Gram matrix or a non-finite correction (cleared), the last
    finite iterate w with its resolvent point p, and the stop reason
    ("converged", "max_iters" or "diverged").  capped and cleared stay 0
    where the run is not accelerated."""

    def __init__(self, chi):
        self.chi = chi
        self.rows = []
        self.retries = 0
        self.capped = 0
        self.cleared = 0
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
    ("converged"), the budget runs out ("max_iters"), or the residual or
    the update is not finite ("diverged", keeping the last finite iterate).

    P_resolvent(gamma, s, out) evaluates the resolvent of the set-valued
    part, Q(w, out) the single-valued part, each into every entry of out,
    which it returns.  chi > 0 must upper-bound Q's Lipschitz constant;
    ``gamma_for`` checks cfg's epsilon and step against it.

    The step is constant where cfg sets errors (the error theorem takes
    gamma_n in [epsilon, (1 - epsilon)/chi]) or gamma.  Otherwise it comes
    from the trajectory, as in Tseng's rule (SIAM J. Control Optim. 38,
    2000), whose proof needs only gamma_n ||Q w_n - Q p_n|| <= theta
    ||w_n - p_n|| with theta = 1 - epsilon.  The run starts from
    max(floor, theta / (STEP_SAFETY l0)), where the floor is gamma_for's
    (1 - epsilon)/chi and l0 is the ratio ||Q w - Q p|| / ||w - p|| of one
    probe resolvent at unit step from w0.  It keeps its step while the
    test passes; when it fails above the floor, the iteration's backward
    and second forward steps are redone at max(floor, 0.9 theta
    ||w_n - p_n|| / ||Q w_n - Q p_n||), reusing Q w_n, and the run keeps
    the smaller step (trace.retries counts the redone steps).  The floor
    passes the test whenever chi bounds Q's Lipschitz constant, so the step
    never falls below the constant one and never rises.

    On that path, and where w0 has at least AA_MIN_SIZE entries, the run
    is accelerated.  One iteration is the map w -> T(w) = w - s + q.  In
    place of w_{n+1} = T(w_n) the run takes w_{n+1} = T(w_n) - e_n, where
    e_n is the type-II Anderson correction of the last AA_MEMORY
    iterates (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; Zhang,
    O'Donoghue & Boyd, SIAM J. Optim. 30, 2020), scaled down to norm at
    most eta_n = AA_CAP ||T(w_0) - w_0|| (n+1)^-AA_POWER.  This is the
    iteration with the error c_n = -e_n / gamma_n added to the second
    forward step, and sum_n ||c_n|| <= sum_n eta_n / epsilon is finite
    because AA_POWER > 1.  So the acceleration stays certified:
    - where the step is the constant (1 - epsilon)/chi, the floor, it is
      the paper's error-tolerant theorem, with that c_n;
    - at a step from the trajectory above the floor, Tseng's
      per-iteration inequality
      ||T(w_n) - z||^2 <= ||w_n - z||^2 - (1 - theta^2) ||w_n - p_n||^2
      at every zero z gives ||w_{n+1} - z|| <= ||w_n - z|| + eta_n, so
      the iterates are quasi-Fejer monotone with a summable perturbation
      (Combettes 2001) and converge with sum_n ||w_n - p_n||^2 finite.
    The stopping test and what the caller certifies from trace.w do not
    depend on the correction.  A redone iteration drops the history,
    because T changes with the step, and so do a singular Gram matrix and
    a non-finite correction, which take the plain step T(w_n).  A
    correction that is wrong every time is capped every time, and the
    residual then falls only about as fast as eta_n.  With errors or gamma
    set, or below AA_MIN_SIZE, the loop runs unaccelerated.

    The run allocates six arrays once, w and a spare that w alternates
    with, s, Q(w), p and Q(p), and P_resolvent, Q and the error draws
    write into them: per iteration no product-space array is allocated,
    bar the Anderson correction.  So the w_n and p_n that on_iteration
    sees are overwritten in the next iteration.  trace.w and trace.p
    belong to the caller: no later run writes into them.
    """
    if not chi > 0:
        raise ParameterError(f"chi must be positive, got {chi}")

    trace = FbfTrace(chi)
    # a, b and c are drawn into s, Q(p)'s array and the spare, and each is
    # spent before its array is written again.  The ufuncs take their
    # outputs positionally: on small arrays out= costs more than it saves
    w = w0.copy()
    s, spare, qw, p, qp = (np.empty_like(w) for _ in range(5))
    nw = _norm(w)                               # ||w_n||, taken once per iterate
    stop = "max_iters"
    adaptive = cfg.errors is None and cfg.gamma is None
    aa = _Anderson(w0.size, trace) if adaptive and w0.size >= AA_MIN_SIZE else None
    theta = 1.0 - epsilon_for(cfg, chi)
    gamma = None
    # a non-finite residual or update is the "diverged" stop: numpy's
    # overflow and invalid-value warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.max_iters):
            # looked up once per iteration: bench/run.py wraps it as its clock
            floor = gamma_for(cfg, chi, n)
            if cfg.errors is not None:
                a, b, c = (e.flat() for e in cfg.errors(n, (w.size,), (s, qp, spare)))
            else:
                a = b = c = None

            Q(w, qw)
            if not adaptive:
                gamma = floor
            elif gamma is None:                 # a probe resolvent at unit step
                P_resolvent(1.0, np.subtract(w, qw, s), p)
                gamma = _step(floor, theta * _norm(np.subtract(w, p, spare)),
                              STEP_SAFETY * _norm(np.subtract(qw, Q(p, qp), spare)))
            # a constant step is the floor, never redone: only a step from
            # the trajectory, which draws no errors, goes round this loop again
            while True:
                np.multiply(qw if a is None else np.add(qw, a, s), gamma, s)
                np.subtract(w, s, s)                # s = w - gamma (qw + a)
                P_resolvent(gamma, s, p)
                if b is not None:
                    p += b
                resid = _norm(np.subtract(w, p, qp))
                Q(p, qp)
                if not gamma > floor:
                    break
                gap = _norm(np.subtract(qw, qp, spare))
                if gamma * gap <= theta * resid:
                    break
                gamma = _step(floor, 0.9 * theta * resid, gap)
                trace.retries += 1
                if aa is not None:              # T changed with the step
                    aa.clear()
            if c is not None:
                qp += c
            # qp takes q = p - gamma (Q(p) + c)
            np.subtract(p, np.multiply(qp, gamma, spare), qp)

            trace.rows.append((n, gamma, resid))
            if cfg.on_iteration is not None:
                cfg.on_iteration(n, w, p)
            if not math.isfinite(resid):        # else inf <= tol * inf reads converged
                stop = "diverged"
                break
            if resid <= cfg.residual_tol * max(1.0, nw):
                stop = "converged"
                break
            np.subtract(w, s, spare)
            spare += qp                         # w_{n+1} = (w - s) + q
            if aa is not None:                  # s is spent: it takes q - s
                aa.extrapolate(n, np.subtract(qp, s, s), spare)
            nw = _norm(spare)                   # inf also where finite entries overflow
            if not math.isfinite(nw) and not np.isfinite(spare).all():
                stop = "diverged"
                break
            w, spare = spare, w

    trace.w, trace.p, trace.stop_reason = w, p, stop
    return trace


class _Anderson:
    """Type-II Anderson acceleration of the map w -> T(w) = w - s + q,
    with every correction capped by a summable sequence.

    It keeps copies of f = T(w) - w and g = T(w) of the last iterate, the
    last AA_MEMORY differences of each in two ring buffers, all allocated
    once, so that no array of the engine's is read a second time, and
    their Gram matrix dF dF^T, updated by one row and column per iterate.
    The weights alpha solve dF dF^T alpha = dF f_n, the normal equations of
    min ||f_n - dF^T alpha||, and the correction e_n = dG^T alpha is scaled
    down to norm at most eta_n = AA_CAP ||T(w_0) - w_0|| (n+1)^-AA_POWER;
    trace.capped counts the scaled ones.  A singular Gram matrix or a
    non-finite correction gives the plain step and drops the history, as
    ``clear`` does at a redone iteration; trace.cleared counts the drops
    of a nonempty history.
    """

    def __init__(self, size, trace):
        self.trace = trace
        self.dF = np.empty((AA_MEMORY, size))
        self.dG = np.empty((AA_MEMORY, size))
        self.f = np.empty(size)
        self.g = np.empty(size)
        self.gram = np.empty((AA_MEMORY, AA_MEMORY))
        self.eta = None                         # AA_CAP ||T(w_0) - w_0||
        self.primed = False                     # f and g hold the last iterate's
        self.count = self.slot = 0

    def clear(self):
        if self.primed:
            self.trace.cleared += 1
        self.primed = False
        self.count = self.slot = 0

    def extrapolate(self, n, f, g):
        """w_{n+1} in place of g, from f = T(w_n) - w_n and g = T(w_n): g
        less the capped correction, or g itself.  f and g are copied, and
        neither is read after the call."""
        if self.eta is None:
            self.eta = AA_CAP * _norm(f)
        j, dF, dG = self.slot, self.dF, self.dG
        primed = self.primed
        if primed:
            np.subtract(f, self.f, out=dF[j])
            np.subtract(g, self.g, out=dG[j])
        np.copyto(self.f, f)
        np.copyto(self.g, g)
        self.primed = True
        if not primed:
            return
        self.slot = (j + 1) % AA_MEMORY
        k = self.count = min(self.count + 1, AA_MEMORY)
        self.gram[j, :k] = self.gram[:k, j] = dF[:k] @ dF[j]
        try:
            e = _anderson_weights(self.gram[:k, :k], dF[:k] @ f) @ dG[:k]
            size = _norm(e)
        except np.linalg.LinAlgError:
            size = math.inf
        if not math.isfinite(size):
            self.clear()
            self.primed = True                  # f and g stay, as copied
            return
        eta = self.eta / float(n + 1) ** AA_POWER
        if size > eta:
            e *= eta / size
            self.trace.capped += 1
        g -= e


def _anderson_weights(gram, rhs):
    """The weights alpha of the Anderson correction: gram alpha = rhs."""
    return np.linalg.solve(gram, rhs)


def _step(floor, num, den):
    """num / den where that is a finite number above the floor, else the
    floor: a zero, infinite or nan norm leaves the step at the floor."""
    step = num / den if den > 0 else math.inf
    return step if floor < step < math.inf else floor


def _norm(f):
    return math.sqrt(float(f @ f))

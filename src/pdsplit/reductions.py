"""Specialized solvers built on the coupled-inclusion machinery.

Four front-ends:

* ParallelSumProblem — one primal variable, K parallel-sum couplings
  (B_k parallel-sum S_k) composed with maps L_k, with a three-way partition
  of the S_k by how they are accessed (resolvent / Lipschitz map /
  Lipschitz inverse).  Lifted to a CoupledInclusionProblem with one
  auxiliary variable per indirectly accessed S_k, solved by the system
  solver, and unlifted.
* CommonZeroProblem — relaxation of finding a common zero of A and the
  B_k; a parallel-sum instance with identity couplings.
* MultivariateMinProblem — structured convex minimization over m blocks
  with infimal-convolution couplings; runs the system solver on
  subdifferentials and gradients.
* UnivariateMinProblem / FeasibilityRelaxation — single-variable convex
  minimization with general infimal convolutions, and its application to
  relaxing (possibly inconsistent) feasibility problems.
"""

from __future__ import annotations

import numpy as np

# entry_apply_adjoint is unused here but stays importable from this module:
# bench/tracer.py wraps both entry_apply names in this namespace.
from .blocks import (  # noqa: F401
    BlockLinearOp,
    BlockVector,
    SpaceSig,
    apply_adjoint,
    apply_block,
    entry_apply,
    entry_apply_adjoint,
    entry_out_dim,
    normalize_entry,
)
from .operators import (
    IndicatorFunction,
    ParameterError,
    Point,
    ScaledIdentityMap,
    SquaredNorm,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
)
from .system import CoupledInclusionProblem, solve_system

__all__ = [
    "ParallelSumProblem",
    "lift_parallel_sum",
    "solve_parallel_sum",
    "CommonZeroProblem",
    "solve_common_zero",
    "MultivariateMinProblem",
    "solve_multivariate_min",
    "evaluate_objectives",
    "primal_objective",
    "dual_objective",
    "UnivariateMinProblem",
    "solve_univariate_min",
    "FeasibilityRelaxation",
    "solve_feasibility_relaxation",
    "relaxation_objective",
    "EvaluationError",
]


class EvaluationError(RuntimeError):
    """No finite evaluator is available for the requested quantity."""


def _need_gradient(fn, role):
    """ParameterError unless fn, the function in ``role``, has a gradient."""
    if not hasattr(fn, "gradient"):
        raise ParameterError(f"{role} is {type(fn).__name__}, which has no gradient")


# ---------------------------------------------------------------------------
# Parallel-sum couplings of a single primal variable


class ParallelSumProblem:
    """Find x with z in A x + sum_k L_k^* ((B_k psum S_k)(L_k x - r_k)) + C x.

    The K couplings are partitioned by index (0-based):

    * k < K1            S[k] is a MonotoneOperator (resolvent access);
    * K1 <= k < K2      S[k] is a LipschitzOperator evaluating S_k itself;
    * k >= K2           S[k] is a LipschitzOperator evaluating S_k^{-1}.
    """

    def __init__(self, dim, dual_dims, K1, K2, A, C, z, r, B, S, L):
        K = len(dual_dims)
        if not 0 <= K1 <= K2 <= K or K < 1:
            raise ParameterError(f"invalid partition 0 <= {K1} <= {K2} <= {K}")
        self.dim = int(dim)
        self.dual_dims = tuple(int(d) for d in dual_dims)
        self.K1, self.K2, self.K = int(K1), int(K2), K
        self.A = A
        self.C = C
        self.z = np.asarray(z, dtype=float).reshape(-1)
        self.r = [np.asarray(rk, dtype=float).reshape(-1) for rk in r]
        self.B = list(B)
        self.S = list(S)
        self.L = [normalize_entry(e) for e in L]
        if len(self.B) != K or len(self.S) != K or len(self.L) != K or len(self.r) != K:
            raise ParameterError("need K entries in each of r, B, S, L")


def lift_parallel_sum(p):
    """Embed the problem into the coupled-inclusion form by adding one
    auxiliary primal variable per coupling with indirect S access.

    Primal blocks are (x, y_1, ..., y_{K2}); the coupling grid stacks the
    L_k in the first column and -Id on the auxiliary diagonal.  Its norm
    bound is the default one: with n_k = ||L_k||, the grid of entry norms N
    has N N^T = n n^T + diag(1, ..., 1, 0, ..., 0), so
    ||N||^2 <= 1 + sum_k ||L_k||^2.
    """
    K1, K2, K = p.K1, p.K2, p.K
    dims_primal = (p.dim,) + p.dual_dims[:K2]
    sig = SpaceSig(dims_primal, p.dual_dims)

    A = [p.A]
    C = [p.C]
    for k in range(K2):
        if k < K1:
            A.append(p.S[k])
            C.append(ZeroMap())
        else:
            A.append(ZeroOperator())
            C.append(p.S[k])
    Dinv = [ZeroMap() if k < K2 else p.S[k] for k in range(K)]

    cells = {(k, 0): p.L[k] for k in range(K)}
    cells.update({(k, k + 1): -1.0 for k in range(K2)})
    L = BlockLinearOp(cells, sig)

    z = BlockVector([p.z] + [np.zeros(d) for d in p.dual_dims[:K2]])
    r = BlockVector(p.r)
    return CoupledInclusionProblem(sig, A, C, p.B, Dinv, L, z, r)


def solve_parallel_sum(p, cfg):
    """Solve the lifted problem with the system solver and unlift it.

    Every Lipschitz S_k enters only through forward evaluations.  The
    report's primal is x alone; the trace runs over the lifted (x, y, v)
    space, so the auxiliary y_1..y_{K2} stay in report.trace.w, between
    x and v.
    """
    report = solve_system(lift_parallel_sum(p), cfg)
    report.primal = report.primal.split(1)[0]
    return report


# ---------------------------------------------------------------------------
# Relaxed common-zero problems


class CommonZeroProblem:
    """Relaxation of finding a point in zer A and every zer B_k:
    0 in A x + sum_k (B_k psum S_k) x, with S_k maximally monotone,
    S_k^{-1} at most single-valued strictly monotone, S_k^{-1}0 = {0}."""

    def __init__(self, dim, A, B, S):
        if len(B) < 1 or len(B) != len(S):
            raise ParameterError("need K >= 1 operators in B and S")
        self.dim = int(dim)
        self.A = A
        self.B = list(B)
        self.S = list(S)
        self.K = len(B)


def _as_parallel_sum(p):
    K = p.K
    return ParallelSumProblem(
        dim=p.dim,
        dual_dims=(p.dim,) * K,
        K1=K,
        K2=K,
        A=p.A,
        C=ZeroMap(),
        z=np.zeros(p.dim),
        r=[np.zeros(p.dim) for _ in range(K)],
        B=p.B,
        S=p.S,
        L=[1.0] * K,
    )


def solve_common_zero(p, cfg):
    """Solve the relaxed common-zero inclusion.

    The instance is a parallel-sum problem with identity couplings and all
    S_k accessed by resolvent, so the forward Lipschitz bound reduces to
    sqrt(K + 1).
    """
    return solve_parallel_sum(_as_parallel_sum(p), cfg)


# ---------------------------------------------------------------------------
# Multivariate structured minimization


class MultivariateMinProblem:
    """Minimize sum_i f_i(x_i) + sum_k (g_k infconv ell_k)(sum_i L_ki x_i
    - r_k) + sum_i (h_i(x_i) - <x_i, z_i>).

    ell[k] is None for the exact-penalty coupling (the infimal convolution
    collapses to g_k and the dual smoothing term vanishes) or a SquaredNorm,
    whose conjugate gradient is linear.  h[i] is a ConvexFunction with a
    ``gradient`` (ZeroFunction() when absent).
    """

    def __init__(self, sig, f, h, g, ell, z, r, L):
        if len(f) != sig.m or len(h) != sig.m:
            raise ParameterError(f"need {sig.m} functions in f and h")
        if len(g) != sig.K or len(ell) != sig.K:
            raise ParameterError(f"need {sig.K} functions in g and ell")
        for lk in ell:
            if lk is not None and not isinstance(lk, SquaredNorm):
                raise ParameterError(
                    "ell entries must be None or SquaredNorm couplings"
                )
        for i, hi in enumerate(h):
            _need_gradient(hi, f"h {i + 1}")
        self.sig = sig
        self.f = list(f)
        self.h = list(h)
        self.g = list(g)
        self.ell = list(ell)
        self.z = z
        self.r = r
        self.L = L


def _ellstar_grad(lk):
    # conjugate of omega ||.||^2 is ||.||^2 / (4 omega); gradient v/(2 omega)
    return ZeroMap() if lk is None else ScaledIdentityMap(0.5 / lk.omega)


def min_problem_to_system(p):
    A = [fn.subdifferential() for fn in p.f]
    C = [hi.gradient for hi in p.h]
    B = [gk.subdifferential() for gk in p.g]
    Dinv = [_ellstar_grad(lk) for lk in p.ell]
    return CoupledInclusionProblem(p.sig, A, C, B, Dinv, p.L, p.z, p.r)


def solve_multivariate_min(p, cfg):
    """Run the primal-dual iteration on subdifferentials and gradients; the
    backward steps become prox evaluations of the f_i and (rescaled) g_k."""
    return solve_system(min_problem_to_system(p), cfg)


def _infconv_value(g, ell, t):
    """(g infconv ell)(t) with ell None (collapses to g) or SquaredNorm
    with a scalar omega (inner minimizer available through the prox of g);
    EvaluationError for an omega per coordinate."""
    if ell is None:
        return g(t)
    if np.ndim(ell.omega):
        raise EvaluationError("g infconv ell has no closed form for an omega per coordinate")
    ystar = g.prox(1.0 / (2.0 * ell.omega), t)
    return g(ystar) + ell(t - ystar)


def _conj_infconv_value(f, h, u):
    """(f* infconv h*)(u) = (f + h)*(u), exact when grad h = c Id + b.

    Then h = (c/2)||.||^2 + <b, .> + h(0); with y = (u - b)/c the supremum
    of <u, x> - f(x) - h(x) is attained at p = prox_{f/c}(y), giving
    c(<y, p> - ||p||^2/2) - f(p) - h(0).  For c = 0 it is f*(u - b) - h(0).
    """
    grad = h.gradient
    if isinstance(grad, ZeroMap):
        c, b = 0.0, 0.0
    elif isinstance(grad, ScaledIdentityMap) and np.ndim(grad.c) == 0:
        c, b = grad.c, grad.b
    else:
        raise EvaluationError(f"h has gradient {type(grad).__name__}, not c Id + constant")
    u = np.asarray(u, dtype=float)
    h0 = h(np.zeros_like(u))
    if c == 0.0:
        return f.conjugate(u - b) - h0
    y = (u - b) / c
    p = f.prox(1.0 / c, y)
    return c * (float(y @ p) - 0.5 * float(p @ p)) - f(p) - h0


def primal_objective(p, x):
    """Primal objective at x.  Indicators use a small feasibility tolerance,
    so converged near-feasible points give finite values, infeasible +inf."""
    total = 0.0
    for i in range(p.sig.m):
        total += p.f[i](x[i]) + p.h[i](x[i]) - float(x[i] @ p.z[i])
    Lx = BlockVector.wrap(apply_block(p.L, x.flat()), p.sig.dims_dual)
    for k in range(p.sig.K):
        total += _infconv_value(p.g[k], p.ell[k], Lx[k] - p.r[k])
    return float(total)


def dual_objective(p, v):
    """Dual objective at v; EvaluationError unless each grad h_i is c Id + b."""
    total = 0.0
    Lstar_v = BlockVector.wrap(apply_adjoint(p.L, v.flat()), p.sig.dims_primal)
    for i in range(p.sig.m):
        total += _conj_infconv_value(p.f[i], p.h[i], p.z[i] - Lstar_v[i])
    for k in range(p.sig.K):
        total += p.g[k].conjugate(v[k]) + float(v[k] @ p.r[k])
        if p.ell[k] is not None:
            total += p.ell[k].conjugate(v[k])
    return float(total)


def evaluate_objectives(p, x, v):
    """Primal and dual objective values at (x, v), None for a side whose
    evaluator raises EvaluationError or NotImplementedError.  The duality
    gap is their sum: nonnegative everywhere, zero at a primal-dual
    solution."""

    def value(fn, *args):
        try:
            return fn(*args)
        except (EvaluationError, NotImplementedError):
            return None

    return value(primal_objective, p, x), value(dual_objective, p, v)


# ---------------------------------------------------------------------------
# Univariate structured minimization and feasibility relaxation


class UnivariateMinProblem:
    """Minimize f(x) + sum_k (g_k infconv phi_k)(L_k x - r_k) + h(x)
    - <x, z> over a single variable x.

    h is a ConvexFunction with a ``gradient`` (ZeroFunction() when
    absent).  phi[k] role by 0-based partition index: k < K1 a
    ConvexFunction (prox access), K1 <= k < K2 one with a ``gradient``,
    k >= K2 a strongly convex SquaredNorm (conjugate gradient is linear).
    """

    def __init__(self, dim, dual_dims, K1, K2, f, h, g, phi, z, r, L):
        K = len(dual_dims)
        if not 0 <= K1 <= K2 <= K or K < 1:
            raise ParameterError(f"invalid partition 0 <= {K1} <= {K2} <= {K}")
        if not all(isinstance(ph, SquaredNorm) for ph in phi[K2:]):
            raise ParameterError("strongly convex phi entries must be SquaredNorm")
        if len(g) != K or len(phi) != K or len(r) != K or len(L) != K:
            raise ParameterError("need K entries in each of g, phi, r, L")
        _need_gradient(h, "h")
        for k in range(K1, K2):
            _need_gradient(phi[k], f"phi {k + 1}")
        self.dim = int(dim)
        self.dual_dims = tuple(int(d) for d in dual_dims)
        self.K1, self.K2, self.K = int(K1), int(K2), K
        self.f = f
        self.h = h
        self.g = list(g)
        self.phi = list(phi)
        self.z = np.asarray(z, dtype=float).reshape(-1)
        self.r = [np.asarray(rk, dtype=float).reshape(-1) for rk in r]
        self.L = [normalize_entry(e) for e in L]


def univariate_to_parallel_sum(p):
    S = []
    for k in range(p.K):
        if k < p.K1:
            S.append(p.phi[k].subdifferential())
        elif k < p.K2:
            S.append(p.phi[k].gradient)
        else:
            S.append(_ellstar_grad(p.phi[k]))
    return ParallelSumProblem(
        dim=p.dim,
        dual_dims=p.dual_dims,
        K1=p.K1,
        K2=p.K2,
        A=p.f.subdifferential(),
        C=p.h.gradient,
        z=p.z,
        r=p.r,
        B=[gk.subdifferential() for gk in p.g],
        S=S,
        L=p.L,
    )


def solve_univariate_min(p, cfg):
    """Partitioned prox iteration: subdifferentials become prox steps and
    every differentiable phi_k enters through forward gradient steps."""
    return solve_parallel_sum(univariate_to_parallel_sum(p), cfg)


class FeasibilityRelaxation:
    """Minimize sum_k min_{y_k in C_k} phi_k(L_k x - y_k), a relaxation of
    the (possibly inconsistent) feasibility problem L_k x in C_k for all k.

    Each phi_k must vanish exactly at 0 and nowhere else attain its
    minimum; the vetted choices are the indicator of {0} (hard constraint)
    and SquaredNorm (quadratic distance penalty).
    """

    def __init__(self, dim, sets, phi, L):
        if not sets or len(sets) != len(phi) or len(phi) != len(L):
            raise ParameterError("need matching nonempty sets, phi, and L lists")
        for ph in phi:
            if not (isinstance(ph, SquaredNorm) or _is_point_zero_indicator(ph)):
                raise ParameterError(
                    "phi entries must be SquaredNorm or the indicator of {0}"
                )
        self.dim = int(dim)
        self.sets = list(sets)
        self.phi = list(phi)
        self.L = [normalize_entry(e) for e in L]
        self.K = len(sets)


def _is_point_zero_indicator(fn):
    return (
        isinstance(fn, IndicatorFunction)
        and isinstance(fn.set, Point)
        and not np.any(fn.set.c)
    )


def feasibility_to_univariate(p):
    dual_dims = [entry_out_dim(p.L[k], p.dim) for k in range(p.K)]
    return UnivariateMinProblem(
        dim=p.dim,
        dual_dims=dual_dims,
        K1=p.K,
        K2=p.K,
        f=ZeroFunction(),
        h=ZeroFunction(),
        g=[IndicatorFunction(s) for s in p.sets],
        phi=p.phi,
        z=np.zeros(p.dim),
        r=[np.zeros(d) for d in dual_dims],
        L=p.L,
    )


def solve_feasibility_relaxation(p, cfg):
    """Solve the relaxation.  With the default step policy the constant
    step stays below (1 + sum_k ||L_k||^2)^{-1/2}, the admissible range for
    this instance, because the forward part is pure coupling."""
    return solve_univariate_min(feasibility_to_univariate(p), cfg)


def relaxation_objective(p, x):
    """sum_k min_{y in C_k} phi_k(L_k x - y); +inf when a hard constraint
    is violated, by the feasibility test of ``ConvexSet.contains``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    total = 0.0
    for k in range(p.K):
        t = entry_apply(p.L[k], x)
        if isinstance(p.phi[k], SquaredNorm):
            total += p.phi[k](t - p.sets[k].project(t))
        elif not p.sets[k].contains(t):
            return float(np.inf)
    return float(total)

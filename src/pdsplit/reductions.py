"""Specialized solvers built on the coupled-inclusion machinery.

Five front ends.  Four lift to a CoupledInclusionProblem once, at their
first solve, and keep it as ``_system``; a MultivariateMinProblem is one.
A solve runs the system solver on it; the parallel-sum forms unlift x in
``solve_parallel_sum``.

* ParallelSumProblem — one primal variable, K parallel-sum couplings
  (B_k parallel-sum S_k) composed with maps L_k, with a three-way partition
  of the S_k by how they are accessed (resolvent / Lipschitz map /
  Lipschitz inverse).  The lift adds one auxiliary variable per
  indirectly accessed S_k.  Each member is checked when it is built.
* UnivariateMinProblem / FeasibilityRelaxation — single-variable convex
  minimization with general infimal convolutions, and its application to
  relaxing (possibly inconsistent) feasibility problems.  Each is a
  ParallelSumProblem that checks its own roles, then builds the sum.
* CommonZeroProblem — relaxation of finding a common zero of A and the
  B_k; a parallel sum with identity couplings, built at its first solve.
* MultivariateMinProblem — structured convex minimization over m blocks
  with infimal-convolution couplings: the system on its subdifferentials
  and gradients, checked when it is built.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# entry_apply_adjoint is unused here but stays importable from this module:
# bench/tracer.py wraps both entry_apply names in this namespace.
from .blocks import (  # noqa: F401
    BlockLinearOp,
    BlockVector,
    SpaceSig,
    apply_adjoint,
    apply_block,
    block_slices,
    entry_apply,
    entry_apply_adjoint,
    entry_misfit,
    entry_out_dim,
    is_size,
    normalize_entry,
)
from .operators import (
    Box,
    ConvexFunction,
    IndicatorFunction,
    LipschitzOperator,
    MonotoneOperator,
    ParameterError,
    Point,
    ScaledIdentityMap,
    SquaredNorm,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
    check_fit,
    check_role,
    check_roles,
    runs,
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
    "FeasibilityRelaxation",
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

    Sizes, counts, shifts, operators (their classes by partition,
    ``check_role``, and their fit, ``check_fit``) and the L_k are checked
    here; a ParameterError names the role, as "S 2: ...", "L 1: ..." or "L 1 is ...".
    """

    def __init__(self, dim, dual_dims, K1, K2, A, C, z, r, B, S, L):
        self.dim, self.dual_dims, self.K1, self.K2 = _check_partition(dim, dual_dims, K1, K2)
        self.K = K = len(self.dual_dims)
        self.A = A
        self.C = C
        self.z = np.asarray(z, dtype=float).reshape(-1)
        self.r = [np.asarray(rk, dtype=float).reshape(-1) for rk in r]
        self.B = list(B)
        self.S = list(S)
        self.L = list(_entries(L))
        if len(self.B) != K or len(self.S) != K or len(self.L) != K or len(self.r) != K:
            raise ParameterError("need K entries in each of r, B, S, L")
        _check_shifts(self)
        check_role("A", A, MonotoneOperator)
        check_role("C", C, LipschitzOperator)
        check_roles("B", self.B, MonotoneOperator)
        check_roles("S", self.S[: self.K1], MonotoneOperator)
        check_roles("S", self.S[self.K1 :], LipschitzOperator, first=self.K1 + 1)
        check_fit((("A", A, self.dim), ("C", C, self.dim), ("B", self.B, self.dual_dims),
                   ("S", self.S, self.dual_dims)))
        for k, (e, d) in enumerate(zip(self.L, self.dual_dims), 1):
            why = entry_misfit(e, d, self.dim)
            if why is not None:
                raise ParameterError(f"L {k} {why}")

    @cached_property
    def _system(self):
        """``lift_parallel_sum(self)``, built at the first solve and kept,
        with its pair: the problem does not change between solves."""
        return lift_parallel_sum(self)


def _check_size(name, n, least=1):
    """int(n); ParameterError unless n is an integer of at least ``least``."""
    if not is_size(n, least):
        raise ParameterError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def _check_partition(dim, dual_dims, K1, K2):
    """(dim, dual_dims, K1, K2) as ints; ParameterError unless dim and each
    dual dimension are integers >= 1, K1 and K2 integers, and
    0 <= K1 <= K2 <= K = len(dual_dims) with K >= 1."""
    dim = _check_size("dim", dim)
    dual_dims = tuple(_check_size("each dual dimension", d) for d in dual_dims)
    K1, K2, K = _check_size("K1", K1, 0), _check_size("K2", K2, 0), len(dual_dims)
    if not K1 <= K2 <= K or K < 1:
        raise ParameterError(f"invalid partition 0 <= {K1} <= {K2} <= {K}")
    return dim, dual_dims, K1, K2


def _entries(L):
    """Yields the L_k as stored; ParameterError "L k: ..." unless each is
    None, a real number or a real matrix."""
    for k, e in enumerate(L, 1):
        try:
            yield normalize_entry(e)
        except ValueError as exc:
            raise ParameterError(f"L {k}: {exc}") from None


def _check_shifts(p):
    """ParameterError unless p.z fits p.dim and each p.r[k] its dual block,
    each finite."""
    names = ["z"] + [f"r {k}" for k in range(1, p.K + 1)]
    for name, v, d in zip(names, [p.z] + p.r, (p.dim,) + p.dual_dims):
        if v.size != d:
            raise ParameterError(f"{name} has {v.size} entries for a block of dimension {d}")
        if not np.isfinite(v).all():
            raise ParameterError(f"the shift {name} must be finite")


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

    p is a ParallelSumProblem (UnivariateMinProblem and FeasibilityRelaxation
    are ones) or a CommonZeroProblem, each of which keeps its lifted system
    (``_system``) from one solve to the next.  Every Lipschitz S_k enters
    only through forward evaluations.  The report's primal is x alone; the
    trace runs over the lifted (x, y, v) space, so the auxiliary
    y_1..y_{K2} stay in report.trace.w, between x and v.
    """
    report = solve_system(p._system, cfg)
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
        self.dim = _check_size("dim", dim)
        self.A = A
        self.B = list(B)
        self.S = list(S)
        self.K = len(B)

    @cached_property
    def _system(self):
        """The lifted parallel-sum form, with identity couplings and every
        S_k by resolvent, built and checked at the first solve and kept."""
        K = self.K
        return lift_parallel_sum(ParallelSumProblem(
            dim=self.dim,
            dual_dims=(self.dim,) * K,
            K1=K,
            K2=K,
            A=self.A,
            C=ZeroMap(),
            z=np.zeros(self.dim),
            r=[np.zeros(self.dim) for _ in range(K)],
            B=self.B,
            S=self.S,
            L=[1.0] * K,
        ))


def solve_common_zero(p, cfg):
    """Solve the relaxed common-zero inclusion.

    The instance is a parallel-sum problem with identity couplings and all
    S_k accessed by resolvent, so the forward Lipschitz bound reduces to
    sqrt(K + 1).
    """
    return solve_parallel_sum(p, cfg)


# ---------------------------------------------------------------------------
# Multivariate structured minimization


class MultivariateMinProblem(CoupledInclusionProblem):
    """Minimize sum_i f_i(x_i) + sum_k (g_k infconv ell_k)(sum_i L_ki x_i
    - r_k) + sum_i (h_i(x_i) - <x_i, z_i>).

    ell[k] is None for the exact-penalty coupling (the infimal convolution
    collapses to g_k and the dual smoothing term vanishes) or a SquaredNorm,
    whose conjugate gradient is linear.  h[i] is a ConvexFunction with a
    ``gradient`` (ZeroFunction() when absent).  The problem is its own
    primal-dual system, with A_i = df_i, C_i = grad h_i, B_k = dg_k and
    Dinv_k = grad ell_k^*; f, h, g and ell are fit to their blocks under
    those names, and z, r and L are checked as the system's, when it is built.
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
        check_roles("f", f, ConvexFunction)
        check_roles("g", g, ConvexFunction)
        self.f, self.h, self.g, self.ell = list(f), list(h), list(g), list(ell)
        super().__init__(sig, [fn.subdifferential() for fn in f], [hi.gradient for hi in h],
                         [gk.subdifferential() for gk in g], [_ellstar_grad(lk) for lk in ell],
                         L, z, r)

    def _check_fit(self):
        sig = self.sig
        check_fit((("f", self.f, sig.dims_primal), ("h", self.h, sig.dims_primal),
                   ("g", self.g, sig.dims_dual), ("ell", self.ell, sig.dims_dual)))

    @cached_property
    def _joined(self):
        """f and h on the primal blocks and g on the dual blocks, each as the
        runs ``operators.runs`` finds: (function, slice, range of the blocks
        it spans), a run of small blocks whose functions join as one joined
        function.  Found at the first objective evaluation and kept."""
        primal, dual = block_slices(self.sig.dims_primal), block_slices(self.sig.dims_dual)
        return runs(self.f, primal), runs(self.h, primal), runs(self.g, dual)


def _ellstar_grad(lk):
    # conjugate of omega ||.||^2 is ||.||^2 / (4 omega); gradient v/(2 omega)
    return ZeroFunction.gradient if lk is None else ScaledIdentityMap(0.5 / lk.omega)


def solve_multivariate_min(p, cfg):
    """Run the primal-dual iteration on subdifferentials and gradients; the
    backward steps become prox evaluations of the f_i and (rescaled) g_k."""
    return solve_system(p, cfg)


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
    so converged near-feasible points give finite values, infeasible +inf.

    Each f, h and g is called once per run of ``p._joined`` and the values
    summed; a joined indicator tests each block against its own slack.  A
    run of g's with an ell keeps a call per block, since g infconv ell does
    not join."""
    f, h, g = p._joined
    xf = x.flat()
    total = sum(fn(xf[sl]) for fn, sl, _ in f + h) - float(xf @ p.z.flat())
    t = BlockVector.wrap(apply_block(p.L, xf) - p.r.flat(), p.sig.dims_dual)
    for gk, sl, blocks in g:
        if all(p.ell[k] is None for k in blocks):
            total += gk(t.flat()[sl])
        else:
            total += sum(_infconv_value(p.g[k], p.ell[k], t[k]) for k in blocks)
    return float(total)


def dual_objective(p, v):
    """Dual objective at v; EvaluationError unless each grad h_i is c Id + b.

    As in ``primal_objective``, each function is called once per run, and a
    joined zero function's conjugate tests each block's norm.  (f + h)*
    joins where a run of f's and one of h's span the same blocks and the
    joined h's gradient is c Id + b with a scalar c; elsewhere, as for a run
    of SquaredNorm h's, whose joined omega is one value per coordinate, and
    for the ell*, it keeps a call per block."""
    f, h, g = p._joined
    vf = v.flat()
    u = BlockVector.wrap(p.z.flat() - apply_adjoint(p.L, vf), p.sig.dims_primal)
    hs = {(sl.start, sl.stop): hn for hn, sl, _ in h}
    total = 0.0
    for fn, sl, blocks in f:
        try:
            total += _conj_infconv_value(fn, hs[sl.start, sl.stop], u.flat()[sl])
        except (KeyError, EvaluationError):
            total += sum(_conj_infconv_value(p.f[i], p.h[i], u[i]) for i in blocks)
    total += sum(gk.conjugate(vf[sl]) for gk, sl, _ in g) + float(vf @ p.r.flat())
    return float(total + sum(lk.conjugate(v[k]) for k, lk in enumerate(p.ell) if lk is not None))


def evaluate_objectives(p, x, v):
    """Primal and dual objective values at (x, v), None for a side whose
    evaluator raises EvaluationError or NotImplementedError.  The duality
    gap is their sum: nonnegative everywhere, zero at a primal-dual
    solution.  f, h and g are joined once per problem (``p._joined``), for
    both sides, so the cost grows with the number of runs, not of blocks."""

    def value(fn, *args):
        try:
            return fn(*args)
        except (EvaluationError, NotImplementedError):
            return None

    return value(primal_objective, p, x), value(dual_objective, p, v)


# ---------------------------------------------------------------------------
# Univariate structured minimization and feasibility relaxation


class UnivariateMinProblem(ParallelSumProblem):
    """Minimize f(x) + sum_k (g_k infconv phi_k)(L_k x - r_k) + h(x)
    - <x, z> over a single variable x.

    h is a ConvexFunction with a ``gradient`` (ZeroFunction() when
    absent).  phi[k] role by 0-based partition index: k < K1 a
    ConvexFunction (prox access), K1 <= k < K2 one with a ``gradient``,
    k >= K2 a strongly convex SquaredNorm (conjugate gradient is linear).
    Its parallel sum has A = df, C = grad h, B_k = dg_k and, by the
    partition, S_k = dphi_k, grad phi_k or grad phi_k^*.
    """

    def __init__(self, dim, dual_dims, K1, K2, f, h, g, phi, z, r, L):
        dim, dual_dims, K1, K2 = _check_partition(dim, dual_dims, K1, K2)
        K = len(dual_dims)
        if not all(isinstance(ph, SquaredNorm) for ph in phi[K2:]):
            raise ParameterError("strongly convex phi entries must be SquaredNorm")
        if len(g) != K or len(phi) != K or len(r) != K or len(L) != K:
            raise ParameterError("need K entries in each of g, phi, r, L")
        _need_gradient(h, "h")
        check_role("f", f, ConvexFunction)
        check_roles("g", g, ConvexFunction)
        check_roles("phi", phi[:K1], ConvexFunction)
        for k in range(K1, K2):
            _need_gradient(phi[k], f"phi {k + 1}")
        check_fit((("f", f, dim), ("h", h, dim), ("g", g, dual_dims), ("phi", phi, dual_dims)))
        self.f, self.h, self.g, self.phi = f, h, list(g), list(phi)
        S = ([ph.subdifferential() for ph in phi[:K1]]
             + [ph.gradient for ph in phi[K1:K2]]
             + [_ellstar_grad(ph) for ph in phi[K2:]])
        super().__init__(dim, dual_dims, K1, K2, f.subdifferential(), h.gradient, z, r,
                         [gk.subdifferential() for gk in g], S, L)


class FeasibilityRelaxation(UnivariateMinProblem):
    """Minimize sum_k min_{y_k in C_k} phi_k(L_k x - y_k), a relaxation of
    the (possibly inconsistent) feasibility problem L_k x in C_k for all k.

    Each phi_k must vanish exactly at 0 and nowhere else attain its
    minimum; the vetted choices are the indicator of {0} (hard constraint)
    and SquaredNorm (quadratic distance penalty).  It is the univariate
    problem with f = h = 0, g_k the indicator of C_k, every phi_k by prox
    and zero shifts, so beta is at most (1 + sum_k ||L_k||^2)^{1/2}.
    """

    def __init__(self, dim, sets, phi, L):
        if not sets or len(sets) != len(phi) or len(phi) != len(L):
            raise ParameterError("need matching nonempty sets, phi, and L lists")
        for ph in phi:
            point_zero = (isinstance(ph, IndicatorFunction) and isinstance(ph.set, Point)
                          and not np.any(ph.set.c))
            if not (isinstance(ph, SquaredNorm) or point_zero):
                raise ParameterError("phi entries must be SquaredNorm or the indicator of {0}")
        dim, L = _check_size("dim", dim), list(_entries(L))
        dims = [entry_out_dim(e, dim) for e in L]
        check_fit((("set", sets, dims),))
        self.sets = list(sets)
        super().__init__(dim, dims, len(dims), len(dims), ZeroFunction(), ZeroFunction(),
                         [IndicatorFunction(s) for s in sets], phi, np.zeros(dim),
                         [np.zeros(d) for d in dims], L)


def relaxation_objective(p, x):
    """sum_k min_{y in C_k} phi_k(L_k x - y); +inf when a hard constraint
    is violated, by the feasibility test of ``ConvexSet.contains``.  EvaluationError
    for an omega per coordinate on a set whose projection does not minimize it."""
    x = np.asarray(x, dtype=float).reshape(-1)
    total = 0.0
    for k in range(p.K):
        t = entry_apply(p.L[k], x)
        if isinstance(p.phi[k], SquaredNorm):
            if np.ndim(p.phi[k].omega) and not isinstance(p.sets[k], (Box, Point)):
                raise EvaluationError(f"set {k + 1}: no closed form for an omega per coordinate")
            total += p.phi[k](t - p.sets[k].project(t))
        elif not p.sets[k].contains(t):
            return float(np.inf)
    return float(total)

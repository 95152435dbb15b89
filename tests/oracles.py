"""Independent references for the tests: a scalar resolvent by bisection,
the shifted inverse resolvent written out, the distance of a point pair
from an operator's graph, the consistency check of a common zero and the
qualification check of a minimization, a projected-gradient minimizer for
feasibility relaxations, the KKT
residuals and the objectives of a minimization block by block, the
coupling and its adjoint added cell by cell, and the primal-dual and
partitioned parallel-sum iterations written out on flat arrays with the
coupling assembled densely by np.block, Anderson acceleration of the
first, and the error schedule's draw written from its formula.

The iteration references share no code with the solver's engine, its
product-space pair or its block storage; they take the step gamma and the
error schedule as given.  The KKT reference shares no code with the
product-space pair.  The objectives reference calls each block's own
functions, through the per-block formulas of ``reductions``, and joins
none.
"""

import numpy as np

from pdsplit.blocks import SMALL_BLOCK_DIM, BlockVector, apply_adjoint, apply_block
from pdsplit.operators import L1Norm, QuadraticDistance, SquaredNorm, ZeroFunction
from pdsplit.reductions import EvaluationError, _conj_infconv_value, _infconv_value


def resolvent_bisection(graph, gamma, x, tol=1e-12, max_expand=200):
    """Resolvent of a scalar maximal monotone graph by bisection.

    ``graph(p)`` returns the (lo, hi) value interval of the operator at the
    scalar p (+-inf allowed outside the domain).  Solves x in p + gamma A(p).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = float(x)

    def side(p):
        lo, hi = graph(p)
        w = (x - p) / gamma
        if w > hi:
            return -1  # p too small
        if w < lo:
            return 1  # p too large
        return 0

    a, b = x - 1.0, x + 1.0
    for _ in range(max_expand):
        if side(a) <= 0:
            break
        a = x - 2.0 * (x - a)
    for _ in range(max_expand):
        if side(b) >= 0:
            break
        b = x + 2.0 * (b - x)
    for _ in range(200):
        mid = 0.5 * (a + b)
        s = side(mid)
        if s == 0 and b - a <= tol:
            return mid
        if s < 0:
            a = mid
        elif s > 0:
            b = mid
        else:
            # inside the graph interval; tighten around mid
            a, b = mid - 0.5 * (b - a) / 2, mid + 0.5 * (b - a) / 2
        if b - a <= tol:
            break
    return 0.5 * (a + b)


def shifted_inverse_resolvent(A, r, gamma, x):
    """J_{gamma (r + A^{-1})}(x) = x - gamma (r + J_{A/gamma}(x/gamma - r)),
    from the resolvent of A alone: the dual step of the paper's iteration,
    written out with the shift inside the backward step."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    return x - gamma * (r + A.resolvent(1.0 / gamma, x / gamma - r))


def graph_distance(A, p, u):
    """Residual of the membership u in A(p), certified through the resolvent
    identity u in A(p) <=> p = J_A(p + u).  Returns the scaled distance."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    d = float(np.linalg.norm(p - A.resolvent(1.0, p + u)))
    return d / (1.0 + float(np.linalg.norm(p)) + float(np.linalg.norm(u)))


def check_consistency_theorem(p, x, tol):
    """True iff x is within tol of being a simultaneous zero of A and every
    B_k.  When the common zero set is nonempty, solutions of the relaxed
    inclusion are exactly its members, so converged outputs must pass."""
    x = np.asarray(x, dtype=float).reshape(-1)
    zero = np.zeros_like(x)
    if graph_distance(p.A, x, zero) > tol:
        return False
    return all(graph_distance(Bk, x, zero) <= tol for Bk in p.B)


# the catalog's real-valued functions (finite everywhere), their subclasses too
REAL_VALUED = (ZeroFunction, L1Norm, QuadraticDistance, SquaredNorm)


def check_qualification(p):
    """Mechanical sufficient conditions for the subdifferential sum rule
    behind the primal-dual correspondence of a MultivariateMinProblem.

    Checks only the two cases decidable from catalog classes and numerical
    rank: all f_i real-valued with each stacked row map surjective, or each
    coupling having a real-valued g_k or ell_k.  Anything else is reported
    as unknown, never as a failure.
    """
    if all(isinstance(fn, REAL_VALUED) for fn in p.f):
        # row j of the row map of dual block k is L^* applied to the j-th
        # unit vector of that block
        dims = p.sig.dims_dual
        unit, start = np.zeros(sum(dims)), 0
        for dk in dims:
            row = np.empty((dk, sum(p.sig.dims_primal)))
            for j in range(start, start + dk):
                unit[j] = 1.0
                row[j - start] = apply_adjoint(p.L, unit)
                unit[j] = 0.0
            start += dk
            sv = np.linalg.svd(row, compute_uv=False)
            if np.sum(sv > 1e-10) < dk:
                break
        else:
            return "holds_by_iii"
    # SquaredNorm, the only ell_k, is real-valued
    if all(isinstance(g, REAL_VALUED) or ell is not None for g, ell in zip(p.g, p.ell)):
        return "holds_by_iv"
    return "unknown"


def kkt_residual_blockwise(prob, x, v):
    """Max-over-blocks residuals of the primal and dual inclusions.

    The primal inclusion z_i - sum_k L_ki^T v_k - C_i x_i in A_i x_i and the
    dual inclusion sum_i L_ki x_i - r_k - Dinv_k v_k in B_k^{-1} v_k are each
    certified through the resolvent fixed-point characterization of graph
    membership.
    """
    Lstar_v = BlockVector.wrap(apply_adjoint(prob.L, v.flat()), prob.sig.dims_primal)
    Lx = BlockVector.wrap(apply_block(prob.L, x.flat()), prob.sig.dims_dual)
    primal = 0.0
    for i in range(prob.sig.m):
        u = prob.z[i] - Lstar_v[i] - prob.C[i](x[i])
        primal = max(primal, graph_distance(prob.A[i], x[i], u))
    dual = 0.0
    for k in range(prob.sig.K):
        w = Lx[k] - prob.r[k] - prob.Dinv[k](v[k])
        # w in B_k^{-1}(v_k)  <=>  v_k in B_k(w)
        dual = max(dual, graph_distance(prob.B[k], w, v[k]))
    return primal, dual


def objectives_blockwise(p, x, v, sizes=False):
    """The primal and dual objectives of the MultivariateMinProblem p at
    the block vectors (x, v), one call of each block's functions at a time,
    None for a side that raises EvaluationError or NotImplementedError.
    With ``sizes``, also the sum of the magnitudes of each side's terms,
    the scale of the rounding error of summing them in another order."""

    def primal():
        terms = []
        for i in range(p.sig.m):
            terms += [p.f[i](x[i]), p.h[i](x[i]), -float(x[i] @ p.z[i])]
        Lx = BlockVector.wrap(apply_block(p.L, x.flat()), p.sig.dims_dual)
        for k in range(p.sig.K):
            terms.append(_infconv_value(p.g[k], p.ell[k], Lx[k] - p.r[k]))
        return terms

    def dual():
        terms = []
        Lstar_v = BlockVector.wrap(apply_adjoint(p.L, v.flat()), p.sig.dims_primal)
        for i in range(p.sig.m):
            terms.append(_conj_infconv_value(p.f[i], p.h[i], p.z[i] - Lstar_v[i]))
        for k in range(p.sig.K):
            terms += [p.g[k].conjugate(v[k]), float(v[k] @ p.r[k])]
            if p.ell[k] is not None:
                terms.append(p.ell[k].conjugate(v[k]))
        return terms

    def side(terms_of):
        try:
            terms = terms_of()
        except (EvaluationError, NotImplementedError):
            return None, None
        return float(sum(terms)), float(sum(abs(t) for t in terms))

    (primal_value, primal_size), (dual_value, dual_size) = side(primal), side(dual)
    values = (primal_value, dual_value)
    return (values, (primal_size, dual_size)) if sizes else values


def _dense(entry, dim_out, dim_in):
    if entry is None:
        return np.zeros((dim_out, dim_in))
    if np.ndim(entry) == 0:
        return float(entry) * np.eye(dim_out)
    return np.asarray(entry, dtype=float)


def dense_coupling(L):
    """The block grid of a BlockLinearOp assembled into one dense matrix."""
    dp, dd = L.sig.dims_primal, L.sig.dims_dual
    return np.block([
        [_dense(e, dd[k], dp[i]) for i, e in enumerate(row)]
        for k, row in enumerate(L.entries)
    ])


def _offsets(dims):
    return np.concatenate(([0], np.cumsum(dims))).astype(int)


def coupling_by_cells(L, x, v):
    """(L x, L* v) at the flat arrays x and v, added cell by cell from
    zeros: first the scalar cells on blocks of at most SMALL_BLOCK_DIM
    coordinates, then the other cells, each group in row-major order.
    This is the order in which the coupling sums each coordinate's terms,
    so the results are exact to the bit."""
    op, od = _offsets(L.sig.dims_primal), _offsets(L.sig.dims_dual)
    Lx, Ltv = np.zeros(od[-1]), np.zeros(op[-1])
    small = [isinstance(e, float) and L.sig.dims_primal[i] <= SMALL_BLOCK_DIM
             for _, i, e in L.nonzeros]
    for group in (True, False):
        for (k, i, e), kind in zip(L.nonzeros, small):
            if kind != group:
                continue
            xs, vs = slice(op[i], op[i + 1]), slice(od[k], od[k + 1])
            if isinstance(e, float):
                Lx[vs] += e * x[xs]
                Ltv[xs] += e * v[vs]
            else:
                Lx[vs] += e @ x[xs]
                Ltv[xs] += e.T @ v[vs]
    return Lx, Ltv


def _split(u, offsets):
    return [u[offsets[j]:offsets[j + 1]] for j in range(len(offsets) - 1)]


def system_map(prob):
    """(T, n1): T(gamma, x, v, errs) is one primal-dual iteration from
    (x, v) at step gamma,

        s1 = x - gamma (C x + L^T v + a1)
        p1 = J_{gamma A}(s1 + gamma z) + b1
        s2 = v - gamma (Dinv v - L x + a2)
        p2 = s2 - gamma (r + J_{B/gamma}(s2/gamma - r) + b2)
        q2 = p2 - gamma (Dinv p2 - L p1 + c2)
        q1 = p1 - gamma (C p1 + L^T p2 + c1)
        x <- x - s1 + q1,   v <- v - s2 + q2

    with errs = (a1, a2, b1, b2, c1, c2), zeros when None; n1 is the
    primal length."""
    dp, dd = prob.sig.dims_primal, prob.sig.dims_dual
    L = dense_coupling(prob.L)
    op, od = _offsets(dp), _offsets(dd)
    z, r = prob.z.flat(), prob.r.flat()

    def J_A(gamma, u):
        parts = zip(prob.A, _split(u, op))
        return np.concatenate([A.resolvent(gamma, t) for A, t in parts])

    def J_B(gamma, u):
        parts = zip(prob.B, _split(u, od))
        return np.concatenate([B.resolvent(1.0 / gamma, t) for B, t in parts])

    def C(u):
        return np.concatenate([Ci(t) for Ci, t in zip(prob.C, _split(u, op))])

    def D(u):
        return np.concatenate([Dk(t) for Dk, t in zip(prob.Dinv, _split(u, od))])

    def T(gamma, x, v, errs=None):
        a1, a2, b1, b2, c1, c2 = (0.0,) * 6 if errs is None else errs
        s1 = x - gamma * (C(x) + L.T @ v + a1)
        p1 = J_A(gamma, s1 + gamma * z) + b1
        s2 = v - gamma * (D(v) - L @ x + a2)
        p2 = s2 - gamma * (r + J_B(gamma, s2 / gamma - r) + b2)
        q2 = p2 - gamma * (D(p2) - L @ p1 + c2)
        q1 = p1 - gamma * (C(p1) + L.T @ p2 + c1)
        return x - s1 + q1, v - s2 + q2

    return T, op[-1]


def error_draw(eta, p, seed, n, slot, size):
    """Slot slot (0=a, 1=b, 2=c) of iteration n of the error schedule
    (eta, p, seed), from its formula: one serial draw of the cube
    [-1/2, 1/2)^size by default_rng((seed, slot, n)), times eta / (n+1)^p,
    over its norm, or e_0 for a zero draw."""
    e = np.random.default_rng((seed, slot, n)).random(size) - 0.5
    nrm = np.linalg.norm(e)
    if nrm == 0.0:
        e[0], nrm = 1.0, 1.0
    return e * (eta / float(n + 1) ** p) / nrm


def error_triples(eta, p, seed):
    """errors(n, dims, out=None) of ``error_draw``: slots 0, 1 and 2 as
    blocks of dims over new arrays, for the engine, which passes out, and
    for ``system_iterates``."""
    def errors(n, dims, out=None):
        dims = tuple(dims)
        return tuple(BlockVector.wrap(error_draw(eta, p, seed, n, slot, sum(dims)), dims)
                     for slot in range(3))
    return errors


def system_iterates(prob, steps, errors=None):
    """Stacked iterates (x_n, v_n), n = 0..len(steps), of the primal-dual
    steps of ``system_map``, iteration n at gamma = steps[n].

    Errors come from ``errors(n, dims)`` over the stacked space, as
    (a, b, c) = ((a1, a2), (b1, -gamma b2), (c1, c2)).
    """
    dims = prob.sig.dims_primal + prob.sig.dims_dual
    T, n1 = system_map(prob)
    x, v = np.zeros(n1), np.zeros(sum(dims) - n1)
    out = [np.concatenate([x, v])]
    for n, gamma in enumerate(steps):
        errs = None
        if errors is not None:
            a, b, c = (e.flat() for e in errors(n, dims))
            errs = (a[:n1], a[n1:], b[:n1], -b[n1:] / gamma, c[:n1], c[n1:])
        x, v = T(gamma, x, v, errs)
        out.append(np.concatenate([x, v]))
    return out


def anderson_iterates(prob, steps, memory, cap, power):
    """Stacked iterates w_0 = 0, ..., w_len(steps) of type-II Anderson
    acceleration (Walker & Ni 2011) of the noise-free primal-dual map T of
    ``system_map``, iteration n at gamma = steps[n], with every correction
    capped:

        g_n = T(w_n),  f_n = g_n - w_n
        dF, dG = the successive differences of the last memory + 1
                 (f, g), in order, since the step last changed
        alpha = argmin ||f_n - dF alpha||   (by least squares)
        e_n = dG alpha, scaled down to norm at most
              eta_n = cap ||f_0|| (n + 1)^-power
        w_{n+1} = g_n - e_n

    A change of step restarts the history: T changes with it.
    """
    T, n1 = system_map(prob)
    w = np.zeros(sum(prob.sig.dims_primal + prob.sig.dims_dual))
    out, fs, gs = [w], [], []
    for n, gamma in enumerate(steps):
        if n and gamma != steps[n - 1]:
            fs, gs = [], []
        g = np.concatenate(T(gamma, w[:n1], w[n1:]))
        fs, gs = fs[-memory:] + [g - w], gs[-memory:] + [g]
        if n == 0:
            eta0 = cap * np.linalg.norm(fs[0])
        w = g
        if len(fs) > 1:
            dF, dG = np.diff(fs, axis=0), np.diff(gs, axis=0)
            e = np.linalg.lstsq(dF.T, fs[-1], rcond=None)[0] @ dG
            e *= min(1.0, eta0 / (n + 1) ** power / np.linalg.norm(e))
            w = g - e
        out.append(w)
    return out


def parallel_sum_iterates(p, steps):
    """Stacked iterates (x_n, y_n, v_n), n = 0..len(steps), of the
    noise-free partitioned parallel-sum steps, iteration n at gamma =
    steps[n].  The auxiliary y_k exists for k < K2; S_k is used through
    its resolvent for k < K1 and through forward evaluations otherwise:

        s11 = x - gamma (C x + sum_k L_k^T v_k),  p11 = J_{gamma A}(s11 + gamma z)
        k < K1:        s1_k = y_k + gamma v_k,  p1_k = J_{gamma S_k}(s1_k)
        K1 <= k < K2:  s1_k = p1_k = y_k - gamma (S_k y_k - v_k)
        s2_k = v_k - gamma (u_k - L_k x),  u_k = y_k (k < K2) or S_k v_k
        p2_k = s2_k - gamma (r_k + J_{B_k/gamma}(s2_k/gamma - r_k))
        q2_k = p2_k - gamma (u'_k - L_k p11),  u'_k = p1_k (k < K2) or S_k p2_k
        q11 = p11 - gamma (C p11 + sum_k L_k^T p2_k)
        k < K1:        q1_k = p1_k + gamma p2_k
        K1 <= k < K2:  q1_k = p1_k - gamma (S_k p1_k - p2_k)
        each variable u <- u - s + q
    """
    K1, K2, K = p.K1, p.K2, p.K
    L = np.block([[_dense(p.L[k], p.dual_dims[k], p.dim)] for k in range(K)])
    ov = _offsets(p.dual_dims)
    blk = [slice(ov[k], ov[k + 1]) for k in range(K)]

    x = np.zeros(p.dim)
    y = [np.zeros(p.dual_dims[k]) for k in range(K2)]
    v = np.zeros(ov[-1])
    out = [np.concatenate([x] + y + [v])]
    for gamma in steps:
        s11 = x - gamma * (p.C(x) + L.T @ v)
        p11 = p.A.resolvent(gamma, s11 + gamma * p.z)
        s1, p1 = [], []
        for k in range(K2):
            if k < K1:
                s1.append(y[k] + gamma * v[blk[k]])
                p1.append(p.S[k].resolvent(gamma, s1[k]))
            else:
                s1.append(y[k] - gamma * (p.S[k](y[k]) - v[blk[k]]))
                p1.append(s1[k])
        Lx, Lp11 = L @ x, L @ p11
        s2, p2, q2 = np.empty_like(v), np.empty_like(v), np.empty_like(v)
        for k in range(K):
            b = blk[k]
            u = y[k] if k < K2 else p.S[k](v[b])
            s2[b] = v[b] - gamma * (u - Lx[b])
            inner = p.B[k].resolvent(1.0 / gamma, s2[b] / gamma - p.r[k])
            p2[b] = s2[b] - gamma * (p.r[k] + inner)
            u = p1[k] if k < K2 else p.S[k](p2[b])
            q2[b] = p2[b] - gamma * (u - Lp11[b])
        q11 = p11 - gamma * (p.C(p11) + L.T @ p2)
        for k in range(K2):
            if k < K1:
                q1 = p1[k] + gamma * p2[blk[k]]
            else:
                q1 = p1[k] - gamma * (p.S[k](p1[k]) - p2[blk[k]])
            y[k] = y[k] - s1[k] + q1
        x, v = x - s11 + q11, v - s2 + q2
        out.append(np.concatenate([x] + y + [v]))
    return out


def conj_box_plus_sqdist(lo, hi, a, u):
    """(f + h)*(u) for f the indicator of [lo, hi] and h = ||. - a||^2 / 2:
    the concave sup of <u, x> - ||x - a||^2 / 2 over the box is separable,
    attained at x = clip(u + a, lo, hi)."""
    x = np.clip(u + a, lo, hi)
    return float(u @ x - 0.5 * (x - a) @ (x - a))


def conj_l1_plus_sqnorm(weight, omega, u):
    """(f + h)*(u) for f = weight ||.||_1 and h = omega ||.||^2: per
    coordinate sup of u x - weight |x| - omega x^2, which is
    max(|u| - weight, 0)^2 / (4 omega)."""
    t = np.maximum(np.abs(u) - weight, 0.0)
    return float(t @ t) / (4.0 * omega)


def projected_gradient_oracle(p, step=1e-3, max_iters=1000000, tol=1e-13):
    """Independent minimizer for relaxations whose hard constraints use
    identity maps: projected gradient on the smooth quadratic penalties,
    projecting onto the intersection handled constraint-by-constraint.

    Only valid when every hard (indicator-penalty) constraint has an
    identity coupling; the demos are constructed that way.
    """
    hard = []
    soft = []
    for k in range(p.K):
        if isinstance(p.phi[k], SquaredNorm):
            soft.append((p.phi[k].omega, p.sets[k], p.L[k]))
        else:
            if not (isinstance(p.L[k], float) and p.L[k] == 1.0):
                raise ValueError("hard constraints must use identity couplings")
            hard.append(p.sets[k])
    x = np.zeros(p.dim)
    for _ in range(max_iters):
        grad = np.zeros(p.dim)
        for omega, cset, Lk in soft:
            if isinstance(Lk, float):
                t = Lk * x
                res = t - cset.project(t)
                grad += 2.0 * omega * Lk * res
            else:
                t = Lk @ x
                res = t - cset.project(t)
                grad += 2.0 * omega * (Lk.T @ res)
        x_new = x - step * grad
        for cset in hard:
            x_new = cset.project(x_new)
        if np.linalg.norm(x_new - x) <= tol:
            x = x_new
            break
        x = x_new
    return x

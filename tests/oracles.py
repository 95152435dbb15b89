"""Independent references for the tests: a scalar resolvent by bisection,
a projected-gradient minimizer for feasibility relaxations, the KKT
residuals block by block, and the primal-dual and partitioned
parallel-sum iterations written out on flat arrays with the coupling
assembled densely by np.block.

The iteration references share no code with the solver's engine, its
product-space pair or its block storage; they take the step gamma and the
error schedule as given.  The KKT reference shares no code with the
product-space pair.
"""

import numpy as np

from pdsplit.blocks import apply_adjoint, apply_block
from pdsplit.operators import SquaredNorm, graph_distance


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


def kkt_residual_blockwise(prob, x, v):
    """Max-over-blocks residuals of the primal and dual inclusions.

    The primal inclusion z_i - sum_k L_ki^T v_k - C_i x_i in A_i x_i and the
    dual inclusion sum_i L_ki x_i - r_k - Dinv_k v_k in B_k^{-1} v_k are each
    certified through the resolvent fixed-point characterization of graph
    membership.
    """
    Lstar_v = apply_adjoint(prob.L, v)
    Lx = apply_block(prob.L, x)
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


def _split(u, offsets):
    return [u[offsets[j]:offsets[j + 1]] for j in range(len(offsets) - 1)]


def system_iterates(prob, gamma, max_iters, errors=None):
    """Stacked iterates (x_n, v_n), n = 0..max_iters, of the primal-dual
    steps with a constant gamma:

        s1 = x - gamma (C x + L^T v + a1)
        p1 = J_{gamma A}(s1 + gamma z) + b1
        s2 = v - gamma (Dinv v - L x + a2)
        p2 = s2 - gamma (r + J_{B/gamma}(s2/gamma - r) + b2)
        q2 = p2 - gamma (Dinv p2 - L p1 + c2)
        q1 = p1 - gamma (C p1 + L^T p2 + c1)
        x <- x - s1 + q1,   v <- v - s2 + q2

    Errors come from ``errors(n, dims)`` over the stacked space, as
    (a, b, c) = ((a1, a2), (b1, -gamma b2), (c1, c2)).
    """
    dp, dd = prob.sig.dims_primal, prob.sig.dims_dual
    L = dense_coupling(prob.L)
    op, od = _offsets(dp), _offsets(dd)
    n1 = op[-1]
    z, r = prob.z.flat(), prob.r.flat()

    def J_A(u):
        parts = zip(prob.A, _split(u, op))
        return np.concatenate([A.resolvent(gamma, t) for A, t in parts])

    def J_B(u):
        parts = zip(prob.B, _split(u, od))
        return np.concatenate([B.resolvent(1.0 / gamma, t) for B, t in parts])

    def C(u):
        return np.concatenate([Ci(t) for Ci, t in zip(prob.C, _split(u, op))])

    def D(u):
        return np.concatenate([Dk(t) for Dk, t in zip(prob.Dinv, _split(u, od))])

    x, v = np.zeros(n1), np.zeros(od[-1])
    out = [np.concatenate([x, v])]
    for n in range(max_iters):
        if errors is None:
            a1 = a2 = b1 = b2 = c1 = c2 = 0.0
        else:
            a, b, c = (e.flat() for e in errors(n, dp + dd))
            a1, a2, b1, b2 = a[:n1], a[n1:], b[:n1], -b[n1:] / gamma
            c1, c2 = c[:n1], c[n1:]
        s1 = x - gamma * (C(x) + L.T @ v + a1)
        p1 = J_A(s1 + gamma * z) + b1
        s2 = v - gamma * (D(v) - L @ x + a2)
        p2 = s2 - gamma * (r + J_B(s2 / gamma - r) + b2)
        q2 = p2 - gamma * (D(p2) - L @ p1 + c2)
        q1 = p1 - gamma * (C(p1) + L.T @ p2 + c1)
        x, v = x - s1 + q1, v - s2 + q2
        out.append(np.concatenate([x, v]))
    return out


def parallel_sum_iterates(p, gamma, max_iters):
    """Stacked iterates (x_n, y_n, v_n), n = 0..max_iters, of the
    noise-free partitioned parallel-sum steps with a constant gamma.  The
    auxiliary y_k exists for k < K2; S_k is used through its resolvent for
    k < K1 and through forward evaluations otherwise:

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
    for _ in range(max_iters):
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

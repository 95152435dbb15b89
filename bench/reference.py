"""Independent references for the benchmark's correctness checks.

Nothing here calls pdsplit: each check solves or certifies the workload's
problem from its raw data with plain numpy, so a solver defect cannot hide
behind shared code.
"""

from __future__ import annotations

import numpy as np


def tv_denoise(y, weight, tol=1e-13, max_iters=2_000_000):
    """argmin_x 0.5 ||x - y||^2 + weight * sum_k |x_k - x_{k+1}|.

    Projected gradient on the box-constrained dual
    min_{|u| <= weight} 0.5 ||y - D^T u||^2 with step 1/4 >= 1/||D||^2;
    the primal point is x = y - D^T u.
    """
    u = np.zeros(y.size - 1)

    def dt(u):  # D^T u for (D x)_k = x_k - x_{k+1}
        return np.r_[u, 0.0] - np.r_[0.0, u]

    for _ in range(max_iters):
        x = y - dt(u)
        u_next = np.clip(u + 0.25 * (x[:-1] - x[1:]), -weight, weight)
        if np.max(np.abs(u_next - u)) <= tol:
            u = u_next
            break
        u = u_next
    else:
        raise RuntimeError("TV reference did not converge")
    return y - dt(u)


def least_squares_point(lines):
    """Least-squares point of the lines <u, x> = rho (normal equations)."""
    G = sum(np.outer(u, u) for u, _ in lines)
    b = sum(rho * u for u, rho in lines)
    return np.linalg.solve(G, b)


def in_box(x, lo, hi, tol):
    return bool(np.all(x >= lo - tol) and np.all(x <= hi + tol))


def chain_box_qp(z, lo, hi, c, tol=1e-12, max_iters=100_000):
    """argmin over x_i in [lo_i, hi_i] of
    sum_i (c/2 ||x_i||^2 - <z_i, x_i>) + 1/2 sum_k ||x_k - x_{k+1}||^2.

    Arrays are (m, dim); the problem separates over coordinates, so the
    projected gradient runs on all of them at once.  The Hessian is
    c I + (path Laplacian), with eigenvalues in [c, c + 4].
    """
    x = np.clip(np.zeros_like(z), lo, hi)
    step = 1.0 / (c + 4.0)
    for _ in range(max_iters):
        lap = np.zeros_like(x)
        diff = x[:-1] - x[1:]
        lap[:-1] += diff
        lap[1:] -= diff
        x_next = np.clip(x - step * (c * x - z + lap), lo, hi)
        if np.max(np.abs(x_next - x)) <= tol:
            return x_next
        x = x_next
    raise RuntimeError("box QP reference did not converge")


def dense_kkt(data, x_blocks, v_blocks):
    """Scaled residuals of the primal and dual inclusions of a dense-grid
    instance, evaluated with an ``np.block``-assembled L.

    Primal: z_i - (L^T v)_i - mu_i x_i in A_i x_i, where A_i is x -> M x + b
    or the normal cone of a box.  Dual: (L x)_k - r_k in B_k^{-1} v_k, i.e.
    v_k = B_k((L x)_k - r_k), where B_k is x -> M x + b or c * Id.
    """
    L = assemble(data["entries"], data["dims_primal"], data["dims_dual"])
    x = np.concatenate(x_blocks)
    v = np.concatenate(v_blocks)
    Ltv = split(L.T @ v, data["dims_primal"])
    Lx = split(L @ x, data["dims_dual"])
    primal = 0.0
    for i, (kind, params) in enumerate(data["A"]):
        u = data["z"][i] - Ltv[i] - data["mu"][i] * x_blocks[i]
        if kind == "affine":
            M, b = params
            gap = u - (M @ x_blocks[i] + b)
        else:
            lo, hi = params
            # u is normal to the box at x iff x is the projection of x + u
            gap = x_blocks[i] - np.clip(x_blocks[i] + u, lo, hi)
        primal = max(primal, _scaled(gap, x_blocks[i], u))
    dual = 0.0
    for k, (kind, params) in enumerate(data["B"]):
        w = Lx[k] - data["r"][k]
        if kind == "affine":
            M, b = params
            gap = v_blocks[k] - (M @ w + b)
        else:
            gap = v_blocks[k] - params * w
        dual = max(dual, _scaled(gap, w, v_blocks[k]))
    return primal, dual


def _scaled(gap, a, b):
    return float(np.linalg.norm(gap)) / (
        1.0 + float(np.linalg.norm(a)) + float(np.linalg.norm(b))
    )


def assemble(entries, dims_primal, dims_dual):
    """Dense matrix of a block grid whose entries are None, a float (scaled
    identity) or a 2-D array."""
    rows = []
    for k, dk in enumerate(dims_dual):
        row = []
        for i, di in enumerate(dims_primal):
            e = entries[k][i]
            if e is None:
                row.append(np.zeros((dk, di)))
            elif np.isscalar(e):
                row.append(float(e) * np.eye(dk, di))
            else:
                row.append(np.asarray(e, dtype=float))
        rows.append(row)
    return np.block(rows)


def split(flat, dims):
    return np.split(flat, np.cumsum(dims)[:-1])


def norm_sq(matrix):
    """Exact squared spectral norm, from a dense SVD."""
    return float(np.linalg.svd(matrix, compute_uv=False)[0] ** 2)

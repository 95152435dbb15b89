"""Primal-dual solver for systems of coupled monotone inclusions.

The problem has m primal blocks and K dual blocks: find x with

    z_i  in  A_i x_i + sum_k L_ki^* v_k + C_i x_i         (i = 1..m)

jointly with dual variables v satisfying

    sum_i L_ki x_i - r_k  in  B_k^{-1} v_k + D_k^{-1} v_k  (k = 1..K),

where each A_i, B_k is maximally monotone, C_i is mu_i-Lipschitz monotone,
D_k^{-1} is nu_k-Lipschitz monotone, and L is a block grid with norm bound
lambda.  The solver lifts the system to one inclusion on the primal x dual
product space, the sum of a maximally monotone operator and a monotone
Lipschitz one (``product_space_pair``), runs the forward-backward-forward
engine ``fbf_solve`` on it, and splits the result back into x and v.
The engine iterates on one flat array w = (x, v); (x, v) solves the
system exactly when w is a zero of the pair, which ``kkt_residual``
measures with one evaluation of the pair at unit step.  The report
carries the engine's trace, whose stop reason says how the run ended; a
caller that wants per-iteration values, such as the primal and dual
residuals x_n - p1_n and v_n - p2_n, reads them from the flat arrays
``FbfConfig.on_iteration`` is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    SMALL_BLOCK_DIM,
    BlockVector,
    apply_adjoint,
    apply_block,
    block_slices,
    check_flat,
    check_signature,
)
from .fbf import FbfTrace, fbf_solve
from .operators import (
    ParameterError,
    ZeroMap,
    join,
    join_key,
    misfit,
    shifted_inverse_resolvent,
)

__all__ = [
    "CoupledInclusionProblem",
    "SolveReport",
    "compute_beta",
    "solve_system",
    "kkt_residual",
    "product_space_pair",
]


class CoupledInclusionProblem:
    """Immutable bundle of the operators, shifts, and constants."""

    def __init__(self, sig, A, C, B, Dinv, L, z, r):
        self.sig = sig
        if len(A) != sig.m or len(C) != sig.m:
            raise ParameterError(f"need {sig.m} primal operators A and C")
        if len(B) != sig.K or len(Dinv) != sig.K:
            raise ParameterError(f"need {sig.K} dual operators B and Dinv")
        check_signature(z, sig.dims_primal, "z")
        check_signature(r, sig.dims_dual, "r")
        if L.sig.dims_primal != sig.dims_primal or L.sig.dims_dual != sig.dims_dual:
            raise ParameterError("coupling grid signature does not match the problem")
        for op in C:
            if op.lipschitz < 0:
                raise ParameterError("C constants must be nonnegative")
        for op in Dinv:
            if op.lipschitz < 0:
                raise ParameterError("Dinv constants must be nonnegative")
        for role, ops, dims in (("A", A, sig.dims_primal), ("C", C, sig.dims_primal),
                                ("B", B, sig.dims_dual), ("Dinv", Dinv, sig.dims_dual)):
            for i, (op, d) in enumerate(zip(ops, dims), 1):
                why = misfit(op, d)
                if why is not None:
                    raise ParameterError(f"{role} {i}: {why}")
        self.A = list(A)
        self.C = list(C)
        self.B = list(B)
        self.Dinv = list(Dinv)
        self.L = L
        self.z = z
        self.r = r

    @cached_property
    def _pair(self):
        """``product_space_pair(self)``, built at the first solve or
        certificate and kept: the problem is immutable."""
        return product_space_pair(self)


def compute_beta(prob):
    """Positive Lipschitz bound of the single-valued part:
    max{max_i mu_i, max_k nu_k} + sqrt(lambda), or 1 where that is 0.
    Q is then constant, so every positive number bounds its Lipschitz
    constant, and 1 gives the step 1 - epsilon."""
    mu_nu = max(op.lipschitz for op in prob.C + prob.Dinv)
    return mu_nu + float(np.sqrt(prob.L.lambda_bound)) or 1.0


def _runs(ops, slices):
    """(operator, slice) for the blocks of ``slices`` in order, found in one
    pass: each maximal run of two or more consecutive blocks of at most
    SMALL_BLOCK_DIM coordinates whose operators share a join key other than
    None is their joined operator (``operators.join``) on the run's slice;
    every other block keeps its own operator and slice.  The operators are
    a problem's, so each fits its block, which ``join`` takes as given."""
    dims = [sl.stop - sl.start for sl in slices]
    out, j, n = [], 0, len(ops)
    while j < n:
        key = join_key(ops[j]) if dims[j] <= SMALL_BLOCK_DIM else None
        stop = j + 1
        while (key is not None and stop < n and dims[stop] <= SMALL_BLOCK_DIM
               and join_key(ops[stop]) == key):
            stop += 1
        if stop - j > 1:
            out.append((join(ops[j:stop], dims[j:stop]),
                        slice(slices[j].start, slices[stop - 1].stop)))
        else:
            out.append((ops[j], slices[j]))
        j = stop
    return out


def product_space_pair(prob):
    """The set-valued/single-valued pair the iteration splits.

    Returns (P_resolvent, Q) acting on the flat array of stacked (x, v):

        P_resolvent(gamma, (x, v)) = (J_{gamma A_i}(x_i + gamma z_i),
                                      J_{gamma (r_k + B_k^{-1})}(v_k))
        Q(x, v) = (C_i x_i + sum_k L_ki^* v_k,  Dinv_k v_k - sum_i L_ki x_i)

    Q is monotone, the skew coupling term included, and beta-Lipschitz.
    The A_i, the B_k and the C_i and Dinv_k are each grouped once, at build
    time: a run of consecutive small blocks whose operators join
    (``operators.join``) is evaluated by one joined operator on one slice
    of the flat product-space array, every other block through its own
    slice, and reads its shift as the matching slice of the flat z or r,
    which must be finite (ParameterError otherwise).
    ZeroMap terms of Q are skipped.  Neither function holds the problem,
    which keeps its pair (``CoupledInclusionProblem._pair``) without a
    reference cycle.
    """
    sig, L = prob.sig, prob.L
    dims = sig.dims_primal + sig.dims_dual
    size = sum(dims)
    n_primal = sum(sig.dims_primal)
    slices = block_slices(dims)

    z, r = prob.z.flat(), prob.r.flat()
    for name, shift in (("z", z), ("r", r)):
        if not np.isfinite(shift).all():
            raise ParameterError(f"the shift {name} must be finite")
    primal_res = [(op, sl, z[sl]) for op, sl in _runs(prob.A, slices[: sig.m])]
    dual_res = [(op, sl, r[sl.start - n_primal : sl.stop - n_primal])
                for op, sl in _runs(prob.B, slices[sig.m :])]
    forward = [(op, sl) for op, sl in _runs(prob.C + prob.Dinv, slices)
               if not isinstance(op, ZeroMap)]

    def P_resolvent(gamma, s):
        out = np.empty(size)
        for op, sl, zi in primal_res:
            out[sl] = op.resolvent(gamma, s[sl] + gamma * zi)
        for op, sl, rk in dual_res:
            out[sl] = shifted_inverse_resolvent(op, rk, gamma, s[sl])
        return out

    def Q(w):
        out = np.empty(size)
        out[:n_primal] = apply_adjoint(L, w[n_primal:])
        np.negative(apply_block(L, w[:n_primal]), out=out[n_primal:])
        for op, sl in forward:
            out[sl] += op(w[sl])
        return out

    return P_resolvent, Q


@dataclass(eq=False)
class SolveReport:
    """Solver output: primal/dual points at the last finite iterate, the
    engine's trace, and the KKT residuals there.  A reduction's auxiliary
    variables, when it has any, stay in trace.w, between x and v.
    Per-iteration quantities come from the trace or from
    ``FbfConfig.on_iteration``."""

    primal: BlockVector
    dual: BlockVector
    trace: FbfTrace
    kkt: tuple

    @property
    def converged(self):
        return self.trace.converged


def solve_system(prob, cfg):
    """Solve the system with the forward-backward-forward engine.

    Per iteration, with step gamma in [epsilon, (1-epsilon)/beta], the
    engine's steps on the pair of ``product_space_pair`` read per block:

        s1_i = x_i - gamma (C_i x_i + sum_k L_ki^T v_k)
        p1_i = J_{gamma A_i}(s1_i + gamma z_i)
        s2_k = v_k - gamma (Dinv_k v_k - sum_i L_ki x_i)
        p2_k = s2_k - gamma (r_k + J_{B_k/gamma}(s2_k/gamma - r_k))
        q2_k = p2_k - gamma (Dinv_k p2_k - sum_i L_ki p1_i)
        v_k <- v_k - s2_k + q2_k
        q1_i = p1_i - gamma (C_i p1_i + sum_k L_ki^T p2_k)
        x_i <- x_i - s1_i + q1_i

    plus optional summable perturbations in each evaluation.  The hook
    cfg.on_iteration sees the flat arrays of the stacked (x, v) iterate and
    of (p1, p2); the report's primal and dual are block views of the last
    iterate.
    """
    dims = prob.sig.dims_primal + prob.sig.dims_dual
    beta = compute_beta(prob)
    trace = fbf_solve(*prob._pair, beta, np.zeros(sum(dims)), cfg)
    x, v = BlockVector.wrap(trace.w, dims).split(prob.sig.m)
    return SolveReport(x, v, trace, kkt_residual(prob, trace.w))


def kkt_residual(prob, w):
    """Max-over-blocks residuals of the primal and dual inclusions at the
    flat primal-dual point w = (x, v), laid out as trace.w is.

    The primal inclusion u_i = z_i - sum_k L_ki^T v_k - C_i x_i in A_i x_i
    and the dual inclusion y_k = sum_i L_ki x_i - r_k - Dinv_k v_k in
    B_k^{-1} v_k are certified through the resolvent fixed-point
    characterization of graph membership: u in A(p) <=> p = J_A(p + u).
    Both come from one evaluation of the pair at unit step on w:
    with s = w - Q(w) and d = w - P_resolvent(1, s), block i of d is
    x_i - J_{A_i}(x_i + u_i), block k is J_{B_k}(v_k + y_k) - y_k, and
    s - w + (z, -r) = (u, y), formed in place of s.  Block j reports
    ||d_j|| / (1 + ||w_j|| + ||(u, y)_j||).  The pair is the problem's
    own, built at its first use; w is only read, and every step after the
    calls to Q and P_resolvent works in place in their outputs.  Anything
    but a 1-D array of the product space's length raises SignatureError.
    At a diverged iterate the residuals may be inf or nan, without
    numpy's overflow and invalid-value warnings.
    """
    sig = prob.sig
    n_primal = sum(sig.dims_primal)
    check_flat(w, n_primal + sum(sig.dims_dual), "primal-dual")
    P_resolvent, Q = prob._pair
    starts = np.cumsum((0,) + sig.dims_primal + sig.dims_dual[:-1])

    def norms(a, out):                  # of the blocks of a, squaring a into out
        return np.sqrt(np.add.reduceat(np.square(a, out=out), starts))

    with np.errstate(over="ignore", invalid="ignore"):
        u = Q(w)
        np.subtract(w, u, out=u)
        d = P_resolvent(1.0, u)
        np.subtract(w, d, out=d)
        u -= w
        u[:n_primal] += prob.z.flat()
        u[n_primal:] -= prob.r.flat()
        nd = norms(d, d)                # d is spent: it takes w's squares next
        ratio = nd / (1.0 + norms(w, d) + norms(u, u))
    return float(ratio[: sig.m].max()), float(ratio[sig.m :].max())

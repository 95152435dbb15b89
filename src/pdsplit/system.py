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
    BlockVector,
    apply_skew,
    block_slices,
    check_flat,
    check_signature,
)
from .fbf import FbfTrace, fbf_solve
from .operators import (LipschitzOperator, MonotoneOperator, ParameterError, ZeroMap,
                        ZeroOperator, check_fit, check_roles, runs)

__all__ = [
    "CoupledInclusionProblem",
    "SolveReport",
    "compute_beta",
    "solve_system",
    "kkt_residual",
    "product_space_pair",
]


class CoupledInclusionProblem:
    """Immutable bundle of the operators, shifts, and constants; a member
    not of its role's class is a ParameterError naming it, as "A 1: ..."."""

    def __init__(self, sig, A, C, B, Dinv, L, z, r):
        self.sig = sig
        self.A, self.C, self.B, self.Dinv = list(A), list(C), list(B), list(Dinv)
        if len(A) != sig.m or len(C) != sig.m:
            raise ParameterError(f"need {sig.m} primal operators A and C")
        if len(B) != sig.K or len(Dinv) != sig.K:
            raise ParameterError(f"need {sig.K} dual operators B and Dinv")
        for role, ops, cls in (("A", A, MonotoneOperator), ("C", C, LipschitzOperator),
                               ("B", B, MonotoneOperator), ("Dinv", Dinv, LipschitzOperator)):
            check_roles(role, ops, cls)
        for role, ops in (("C", C), ("Dinv", Dinv)):
            if any(op.lipschitz < 0 for op in ops):
                raise ParameterError(f"{role} constants must be nonnegative")
        self._check_fit()
        check_signature(z, sig.dims_primal, "z")
        check_signature(r, sig.dims_dual, "r")
        if L.sig.dims_primal != sig.dims_primal or L.sig.dims_dual != sig.dims_dual:
            raise ParameterError("coupling grid signature does not match the problem")
        self.L = L
        self.z = z
        self.r = r

    def _check_fit(self):
        """ParameterError naming the first member that does not fit its
        block; a front end that builds the members checks its own instead."""
        sig = self.sig
        check_fit((("A", self.A, sig.dims_primal), ("C", self.C, sig.dims_primal),
                   ("B", self.B, sig.dims_dual), ("Dinv", self.Dinv, sig.dims_dual)))

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


def product_space_pair(prob):
    """The set-valued/single-valued pair the iteration splits.

    Returns (P_resolvent, Q) acting on the flat array of stacked (x, v):

        P_resolvent(gamma, (x, v), out) = (J_{gamma A_i}(x_i),
                                           v_k - gamma J_{B_k/gamma}(v_k/gamma))
        Q((x, v), out) = (C_i x_i + sum_k L_ki^* v_k - z_i,
                          Dinv_k v_k - sum_i L_ki x_i + r_k)

    Each overwrites all of out, and returns it.  P resolves each B_k^{-1}
    by Moreau's identity.  Q, shifts included, is monotone and
    beta-Lipschitz: one sweep of the coupling's cells (``apply_skew``),
    then C_i and Dinv_k added, z subtracted and r added in place.  The
    A_i, the B_k and the C_i and Dinv_k are grouped once, at build time:
    a run of consecutive small blocks whose operators join
    (``operators.runs``) is one joined operator on one slice, every other
    block its own.  A ZeroOperator run is copied; ZeroMap terms and an
    all-zero shift are skipped.  z and r must be finite (ParameterError
    otherwise).  Neither function holds the problem, which keeps its pair
    (``CoupledInclusionProblem._pair``) without a reference cycle.
    """
    sig, L = prob.sig, prob.L
    n_primal = sum(sig.dims_primal)
    slices = block_slices(sig.dims_primal + sig.dims_dual)

    z, r = prob.z.flat(), prob.r.flat()
    for name, shift in (("z", z), ("r", r)):
        if not np.isfinite(shift).all():
            raise ParameterError(f"the shift {name} must be finite")
    z, r = (shift if shift.any() else None for shift in (z, r))

    primal_res = [(None if type(op) is ZeroOperator else op, sl)    # None: the identity
                  for op, sl, _ in runs(prob.A, slices[: sig.m])]
    dual_res = [(op, sl) for op, sl, _ in runs(prob.B, slices[sig.m :])]
    forward = [(op, sl) for op, sl, _ in runs(prob.C + prob.Dinv, slices)
               if not isinstance(op, ZeroMap)]

    def P_resolvent(gamma, s, out):
        for op, sl in primal_res:
            out[sl] = s[sl] if op is None else op.resolvent(gamma, s[sl])
        for op, sl in dual_res:
            out[sl] = s[sl] - gamma * op.resolvent(1.0 / gamma, s[sl] / gamma)
        return out

    def Q(w, out):
        apply_skew(L, w, out)
        for op, sl in forward:
            out[sl] += op(w[sl])
        if z is not None:
            out[:n_primal] -= z
        if r is not None:
            out[n_primal:] += r
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

    Per iteration, with step gamma (constant in [epsilon, (1-epsilon)/beta]
    where cfg sets errors or gamma, otherwise from the trajectory, at or
    above (1-epsilon)/beta, as ``fbf_solve`` describes), the engine's steps
    on the pair of ``product_space_pair`` read per block:

        s1_i = x_i - gamma (C_i x_i + sum_k L_ki^T v_k - z_i)
        p1_i = J_{gamma A_i}(s1_i)
        s2_k = v_k - gamma (Dinv_k v_k - sum_i L_ki x_i + r_k)
        p2_k = s2_k - gamma J_{B_k/gamma}(s2_k/gamma)
        q2_k = p2_k - gamma (Dinv_k p2_k - sum_i L_ki p1_i + r_k)
        v_k <- v_k - s2_k + q2_k
        q1_i = p1_i - gamma (C_i p1_i + sum_k L_ki^T p2_k - z_i)
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
    s - w = (u, y), formed in place of s.  Block j reports
    ||d_j|| / (1 + ||w_j|| + ||(u, y)_j||).  The pair is the problem's
    own, built at its first use; w is only read, and every step works in
    place in the two arrays that Q and P_resolvent write into.  Anything
    but a 1-D array of the product space's length raises SignatureError.
    At a diverged iterate the residuals may be inf or nan, without
    numpy's overflow and invalid-value warnings.
    """
    sig = prob.sig
    check_flat(w, sum(sig.dims_primal + sig.dims_dual), "primal-dual")
    P_resolvent, Q = prob._pair
    starts = np.cumsum((0,) + sig.dims_primal + sig.dims_dual[:-1])

    def norms(a, out):                  # of the blocks of a, squaring a into out
        return np.sqrt(np.add.reduceat(np.square(a, out=out), starts))

    with np.errstate(over="ignore", invalid="ignore"):
        u = Q(w, np.empty(w.size))
        np.subtract(w, u, out=u)
        d = P_resolvent(1.0, u, np.empty(w.size))
        np.subtract(w, d, out=d)
        u -= w
        nd = norms(d, d)                # d is spent: it takes w's squares next
        ratio = nd / (1.0 + norms(w, d) + norms(u, u))
    return float(ratio[: sig.m].max()), float(ratio[sig.m :].max())

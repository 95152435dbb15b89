"""Built-in demo instances with independent oracles.

Each demo solves a small instance with a solution computable by other
means (closed form, normal equations, or projected gradient) and reports
the deviation from that oracle.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockLinearOp, SpaceSig
from .operators import (
    Box,
    Hyperplane,
    IndicatorFunction,
    Point,
    QuadraticDistance,
    L1Norm,
    ScaledIdentity,
    NormalCone,
    SquaredNorm,
    ZeroMap,
    ZeroOperator,
)
from .reductions import (
    CommonZeroProblem,
    FeasibilityRelaxation,
    MultivariateMinProblem,
    solve_common_zero,
    solve_feasibility_relaxation,
    solve_multivariate_min,
    zero_smooth,
)

__all__ = ["DEMO_NAMES", "get_demo", "projected_gradient_oracle"]

# the solver of each problem kind a demo uses
_SOLVERS = {
    "multivar_min": solve_multivariate_min,
    "common_zero": solve_common_zero,
    "feasibility": solve_feasibility_relaxation,
}


class Demo:
    def __init__(self, name, kind, description, build, oracle):
        self.name = name
        self.kind = kind
        self.description = description
        self.build = build
        self.oracle = oracle

    def run(self, prob, cfg):
        """Returns (report, solution-as-flat-array)."""
        report = _SOLVERS[self.kind](prob, cfg)
        return report, report.primal.flat()

    def solve(self, cfg):
        return self.run(self.build(), cfg)


def _two_box_coupling():
    """Two box-constrained scalars coupled by a quadratic penalty on their
    difference; the minimizer pushes both variables to the facing box
    edges."""
    sig = SpaceSig((1, 1), (1,))
    L = BlockLinearOp([[1.0, -1.0]], sig)
    return MultivariateMinProblem(
        sig=sig,
        f=[
            IndicatorFunction(Box([2.0], [3.0])),
            IndicatorFunction(Box([0.0], [1.0])),
        ],
        h=[zero_smooth(), zero_smooth()],
        g=[QuadraticDistance([0.0])],
        ell=[None],
        z=_zeros_bv((1, 1)),
        r=_zeros_bv((1,)),
        L=L,
    )


def _zeros_bv(dims):
    from .blocks import BlockVector

    return BlockVector.zeros(dims)


def _legendre_instance():
    """Three pairwise-inconsistent lines in the plane, each relaxed by a
    quadratic coupling; the relaxation solves the least-squares problem."""
    lines = [
        (np.array([1.0, 0.0]), 1.0),
        (np.array([0.0, 1.0]), 2.0),
        (np.array([1.0, 1.0]) / np.sqrt(2.0), 0.0),
    ]
    B = [NormalCone(Hyperplane(u, rho)) for u, rho in lines]
    S = [ScaledIdentity(1.0) for _ in lines]
    prob = CommonZeroProblem(2, ZeroOperator(), B, S)
    prob.lines = lines
    return prob


def legendre_normal_equations(lines):
    G = sum(np.outer(u, u) for u, _ in lines)
    b = sum(rho * u for u, rho in lines)
    return np.linalg.solve(G, b)


def _box_line_relaxation():
    """Hard box constraint [0,1]^2 with a soft quadratic attraction to the
    line x1 + x2 = 3; the minimizer is the box corner nearest the line."""
    return FeasibilityRelaxation(
        dim=2,
        sets=[Box([0.0, 0.0], [1.0, 1.0]), Hyperplane([1.0, 1.0], 3.0)],
        phi=[IndicatorFunction(Point([0.0, 0.0])), SquaredNorm(1.0)],
        L=[1.0, 1.0],
    )


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


def _lasso_instance():
    """Sparse denoising of b = (3, 0.2) with a unit l1 penalty; the
    solution is componentwise soft thresholding."""
    sig = SpaceSig((2,), (2,))
    L = BlockLinearOp([[1.0]], sig)
    return MultivariateMinProblem(
        sig=sig,
        f=[L1Norm(1.0)],
        h=[zero_smooth()],
        g=[QuadraticDistance([3.0, 0.2])],
        ell=[None],
        z=_zeros_bv((2,)),
        r=_zeros_bv((2,)),
        L=L,
    )


_DEMOS = {demo.name: demo for demo in (
    Demo("twobox", "multivar_min",
         "two box-constrained scalars with quadratic difference penalty",
         _two_box_coupling, lambda p: np.array([2.0, 1.0])),
    Demo("legendre", "common_zero",
         "least-squares relaxation of three inconsistent lines",
         _legendre_instance, lambda p: legendre_normal_equations(p.lines)),
    Demo("boxhalf", "feasibility",
         "box-constrained quadratic distance to an unreachable line",
         _box_line_relaxation, lambda p: np.array([1.0, 1.0])),
    Demo("lasso1d", "multivar_min",
         "l1-penalized denoising solved against soft thresholding",
         _lasso_instance, lambda p: np.array([2.0, 0.0])),
)}
DEMO_NAMES = tuple(_DEMOS)


def get_demo(name):
    if name not in _DEMOS:
        raise KeyError(f"unknown demo {name!r}; choose from {', '.join(DEMO_NAMES)}")
    return _DEMOS[name]

"""Built-in demo instances with independent oracles.

Each demo solves a small instance with a solution computable by other
means (closed form or normal equations) and reports the deviation from
that oracle.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockLinearOp, BlockVector, SpaceSig
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

__all__ = ["DEMO_NAMES", "get_demo"]

# the solver of each problem kind a demo uses
_SOLVERS = {
    "multivar_min": solve_multivariate_min,
    "common_zero": solve_common_zero,
    "feasibility": solve_feasibility_relaxation,
}


class Demo:
    def __init__(self, name, kind, build, oracle):
        self.name = name
        self.kind = kind
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
        z=BlockVector.zeros((1, 1)),
        r=BlockVector.zeros((1,)),
        L=L,
    )


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
        z=BlockVector.zeros((2,)),
        r=BlockVector.zeros((2,)),
        L=L,
    )


_DEMOS = {demo.name: demo for demo in (
    Demo("twobox", "multivar_min", _two_box_coupling, lambda p: np.array([2.0, 1.0])),
    Demo("legendre", "common_zero", _legendre_instance,
         lambda p: legendre_normal_equations(p.lines)),
    Demo("boxhalf", "feasibility", _box_line_relaxation, lambda p: np.array([1.0, 1.0])),
    Demo("lasso1d", "multivar_min", _lasso_instance, lambda p: np.array([2.0, 0.0])),
)}
DEMO_NAMES = tuple(_DEMOS)


def get_demo(name):
    if name not in _DEMOS:
        raise KeyError(f"unknown demo {name!r}; choose from {', '.join(DEMO_NAMES)}")
    return _DEMOS[name]

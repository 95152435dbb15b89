"""Built-in demo instances with independent oracles.

Each demo is a problem file in the ``solve`` format together with an
oracle: the solution computed by other means (closed form or normal
equations) from the built problem.  ``pdsplit demo`` solves the file as
``pdsplit solve`` would and reports the deviation from that oracle.
"""

from __future__ import annotations

import numpy as np

from .probfile import build_problem, parse_problem

__all__ = ["DEMO_NAMES", "get_demo"]


class Demo:
    def __init__(self, name, text, oracle):
        self.name = name
        self.text = text
        self.oracle = oracle

    def build(self):
        return build_problem(parse_problem(self.text))[0]

    def solve(self, cfg):
        """Returns (report, solution-as-flat-array)."""
        prob, solver = build_problem(parse_problem(self.text))
        report = solver(prob, cfg)
        return report, report.primal.flat()


def legendre_normal_equations(lines):
    """The least-squares point of the lines <x, u> = rho given as (u, rho)."""
    G = sum(np.outer(u, u) for u, _ in lines)
    b = sum(rho * u for u, rho in lines)
    return np.linalg.solve(G, b)


# Two box-constrained scalars coupled by a quadratic penalty on their
# difference; the minimizer pushes both variables to the facing box edges.
_TWOBOX = """\
problem multivar_min
primal_dims 1 1
dual_dims 1
op f 1 indicator_box lo=2 hi=3
op f 2 indicator_box lo=0 hi=1
op h 1 zero
op h 2 zero
op g 1 sqdist a=0
op ell 1 none
entry 1 1 scale 1
entry 1 2 scale -1
vec z 0 0
vec r 0
"""

# Three pairwise-inconsistent lines in the plane, each relaxed by a
# quadratic coupling; the relaxation solves the least-squares problem.
_LEGENDRE = """\
problem common_zero
dim 2
op A zero
op B 1 normal_cone_hyperplane u=1,0 rho=1
op B 2 normal_cone_hyperplane u=0,1 rho=2
op B 3 normal_cone_hyperplane u=0.7071067811865475,0.7071067811865475 rho=0
op S 1 scaled_identity c=1
op S 2 scaled_identity c=1
op S 3 scaled_identity c=1
"""

# Hard box constraint [0,1]^2 with a soft quadratic attraction to the line
# x1 + x2 = 3; the minimizer is the box corner nearest the line.
_BOXHALF = """\
problem feasibility
dim 2
op set 1 box lo=0,0 hi=1,1
op set 2 hyperplane u=1,1 rho=3
op phi 1 point_zero
op phi 2 sqnorm omega=1
entry 1 1 identity
entry 2 1 identity
"""

# Sparse denoising of b = (3, 0.2) with a unit l1 penalty; the solution is
# componentwise soft thresholding.
_LASSO1D = """\
problem multivar_min
primal_dims 2
dual_dims 2
op f 1 l1 weight=1
op h 1 zero
op g 1 sqdist a=3,0.2
op ell 1 none
entry 1 1 identity
vec z 0 0
vec r 0 0
"""

_DEMOS = {demo.name: demo for demo in (
    Demo("twobox", _TWOBOX, lambda p: np.array([2.0, 1.0])),
    Demo("legendre", _LEGENDRE, lambda p: legendre_normal_equations(
        [(Bk.set.u, Bk.set.rho) for Bk in p.B])),
    Demo("boxhalf", _BOXHALF, lambda p: np.array([1.0, 1.0])),
    Demo("lasso1d", _LASSO1D, lambda p: np.array([2.0, 0.0])),
)}
DEMO_NAMES = tuple(_DEMOS)


def get_demo(name):
    if name not in _DEMOS:
        raise KeyError(f"unknown demo {name!r}; choose from {', '.join(DEMO_NAMES)}")
    return _DEMOS[name]

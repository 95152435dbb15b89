"""Catalog of maximally monotone operators and convex functions.

Set-valued operators are exposed exclusively through their resolvents
J_{gamma A} = (Id + gamma A)^{-1}; convex functions through their proximity
operators.  Every catalog member is defined on the whole space, immutable
after construction, and safe to evaluate concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ParameterError",
    "ConvexSet",
    "Box",
    "Ball",
    "Halfspace",
    "Hyperplane",
    "Point",
    "MonotoneOperator",
    "ZeroOperator",
    "ScaledIdentity",
    "AffineOperator",
    "NormalCone",
    "SubdifferentialOperator",
    "LipschitzOperator",
    "ZeroMap",
    "ScaledIdentityMap",
    "AffineMap",
    "ConvexFunction",
    "ZeroFunction",
    "IndicatorFunction",
    "L1Norm",
    "QuadraticDistance",
    "SquaredNorm",
    "resolvent",
    "prox",
    "conjugate_prox",
    "shifted_inverse_resolvent",
    "yosida",
    "graph_distance",
]

# Relative slack used when deciding whether a nearly-feasible point counts
# as feasible for an indicator evaluation.
INDICATOR_FEASIBILITY_TOL = 1e-6


class ParameterError(ValueError):
    """Invalid operator/step parameter (e.g. gamma <= 0)."""


def _check_gamma(gamma):
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")


# ---------------------------------------------------------------------------
# Closed convex sets (projection targets)


class ConvexSet:
    label = "set"

    def project(self, x):
        raise NotImplementedError

    def distance(self, x):
        return float(np.linalg.norm(x - self.project(x)))

    def contains(self, x, tol=1e-10):
        return self.distance(x) <= tol * (1.0 + float(np.linalg.norm(x)))


class Box(ConvexSet):
    """Axis-aligned box; infinite bounds give orthants and the whole space."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float).reshape(-1)
        self.hi = np.asarray(hi, dtype=float).reshape(-1)
        if self.lo.shape != self.hi.shape or not np.all(self.lo <= self.hi):
            raise ParameterError("box needs lo <= hi componentwise, without NaN")
        self.label = "box"

    def project(self, x):
        return np.clip(x, self.lo, self.hi)


class Ball(ConvexSet):
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.radius = float(radius)
        if not self.radius >= 0:
            raise ParameterError("radius must be nonnegative")
        self.label = "ball"

    def project(self, x):
        d = x - self.center
        n = np.linalg.norm(d)
        if n <= self.radius:
            return np.array(x, dtype=float)
        return self.center + (self.radius / n) * d


class Halfspace(ConvexSet):
    """{x : <x, u> <= rho}."""

    def __init__(self, u, rho):
        self.u = np.asarray(u, dtype=float).reshape(-1)
        self.rho = float(rho)
        nsq = float(self.u @ self.u)
        if nsq == 0.0:
            raise ParameterError("halfspace normal must be nonzero")
        self._nsq = nsq
        self.label = "halfspace"

    def project(self, x):
        excess = float(x @ self.u) - self.rho
        if excess <= 0:
            return np.array(x, dtype=float)
        return x - (excess / self._nsq) * self.u


class Hyperplane(ConvexSet):
    """{x : <x, u> = rho}."""

    def __init__(self, u, rho):
        self.u = np.asarray(u, dtype=float).reshape(-1)
        self.rho = float(rho)
        nsq = float(self.u @ self.u)
        if nsq == 0.0:
            raise ParameterError("hyperplane normal must be nonzero")
        self._nsq = nsq
        self.label = "hyperplane"

    def project(self, x):
        return x - ((float(x @ self.u) - self.rho) / self._nsq) * self.u


class Point(ConvexSet):
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float).reshape(-1)
        self.label = "point"

    def project(self, x):
        return self.c.copy()


# ---------------------------------------------------------------------------
# Maximally monotone operators


class MonotoneOperator:
    """Maximally monotone operator exposed through its resolvent."""

    label = "monotone"
    uniformly_monotone = False

    def resolvent(self, gamma, x):
        raise NotImplementedError


class ZeroOperator(MonotoneOperator):
    label = "zero"

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return np.array(x, dtype=float)


class ScaledIdentity(MonotoneOperator):
    """c * Id with c >= 0; resolvent x / (1 + gamma c)."""

    def __init__(self, c):
        if not c >= 0:
            raise ParameterError("scaled identity needs c >= 0 for monotonicity")
        self.c = float(c)
        self.label = f"scaled_identity(c={self.c})"
        self.uniformly_monotone = self.c > 0

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return np.asarray(x, dtype=float) / (1.0 + gamma * self.c)


class AffineOperator(MonotoneOperator):
    """x -> M x + b with M + M^T positive semidefinite."""

    def __init__(self, M, b=None):
        self.M = np.asarray(M, dtype=float)
        n = self.M.shape[0]
        if self.M.shape != (n, n):
            raise ParameterError("M must be square")
        sym = 0.5 * (self.M + self.M.T)
        if np.min(np.linalg.eigvalsh(sym)) < -1e-10:
            raise ParameterError("M + M^T must be positive semidefinite")
        self.b = np.zeros(n) if b is None else np.asarray(b, dtype=float).reshape(-1)
        self.label = "affine"

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        n = self.M.shape[0]
        return np.linalg.solve(np.eye(n) + gamma * self.M, x - gamma * self.b)

    def __call__(self, x):
        return self.M @ x + self.b


class NormalCone(MonotoneOperator):
    """Normal cone of a closed convex set; resolvent is the projection."""

    def __init__(self, cset):
        self.set = cset
        self.label = f"normal_cone[{cset.label}]"

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return self.set.project(x)


class SubdifferentialOperator(MonotoneOperator):
    """Subdifferential of a convex function; resolvent is the prox."""

    def __init__(self, fn):
        self.fn = fn
        self.label = f"subdiff[{fn.label}]"

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return self.fn.prox(gamma, x)


# ---------------------------------------------------------------------------
# Single-valued monotone Lipschitz operators


class LipschitzOperator:
    """Monotone single-valued operator with a declared Lipschitz constant."""

    def __init__(self, fn, lipschitz, label="lipschitz"):
        if lipschitz < 0:
            raise ParameterError("Lipschitz constant must be nonnegative")
        self._fn = fn
        self.lipschitz = float(lipschitz)
        self.label = label

    def __call__(self, x):
        return self._fn(x)


class ZeroMap(LipschitzOperator):
    def __init__(self):
        super().__init__(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0, "zero_map")


class ScaledIdentityMap(LipschitzOperator):
    def __init__(self, c):
        if not c >= 0:
            raise ParameterError("scaled identity map needs c >= 0")
        self.c = float(c)
        super().__init__(lambda x: self.c * np.asarray(x, dtype=float), self.c,
                         f"scaled_identity_map(c={c})")


class AffineMap(LipschitzOperator):
    """x -> M x + b with M + M^T positive semidefinite."""

    def __init__(self, M, b=None):
        self.M = np.asarray(M, dtype=float)
        n = self.M.shape[0]
        sym = 0.5 * (self.M + self.M.T)
        if np.min(np.linalg.eigvalsh(sym)) < -1e-10:
            raise ParameterError("M + M^T must be positive semidefinite")
        self.b = np.zeros(n) if b is None else np.asarray(b, dtype=float).reshape(-1)
        const = float(np.sqrt(max(np.linalg.eigvalsh(self.M.T @ self.M).max(), 0.0)))
        super().__init__(lambda x: self.M @ x + self.b, const, "affine_map")


# ---------------------------------------------------------------------------
# Convex functions (prox + optional value / conjugate value)


class ConvexFunction:
    label = "convex"
    real_valued = False

    def prox(self, gamma, x):
        raise NotImplementedError

    def __call__(self, x):
        """Function value; may be +inf.  Raises if no evaluator exists."""
        raise NotImplementedError(f"{self.label} has no value evaluator")

    def conjugate(self, u):
        raise NotImplementedError(f"{self.label} has no conjugate evaluator")

    def subdifferential(self):
        return SubdifferentialOperator(self)


class ZeroFunction(ConvexFunction):
    label = "zero_fn"
    real_valued = True

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return np.array(x, dtype=float)

    def __call__(self, x):
        return 0.0

    def conjugate(self, u):
        n = float(np.linalg.norm(u))
        return 0.0 if n <= INDICATOR_FEASIBILITY_TOL else np.inf


class IndicatorFunction(ConvexFunction):
    """iota_C; prox is the projection, value 0 on C (+inf off it)."""

    def __init__(self, cset):
        self.set = cset
        self.label = f"indicator[{cset.label}]"

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return self.set.project(x)

    def __call__(self, x):
        if self.set.contains(x, tol=INDICATOR_FEASIBILITY_TOL):
            return 0.0
        return np.inf

    def conjugate(self, u):
        # support function of the set; closed forms per set kind
        s = self.set
        u = np.asarray(u, dtype=float).reshape(-1)
        if isinstance(s, Point):
            return float(s.c @ u)
        if isinstance(s, Box):
            val = 0.0
            for uj, lo, hi in zip(u, s.lo, s.hi):
                val += uj * (hi if uj > 0 else lo)
            return float(val)
        if isinstance(s, Ball):
            return float(s.center @ u) + s.radius * float(np.linalg.norm(u))
        if isinstance(s, Hyperplane):
            t = float(u @ s.u) / s._nsq
            resid = np.linalg.norm(u - t * s.u)
            if resid > INDICATOR_FEASIBILITY_TOL * (1 + np.linalg.norm(u)):
                return np.inf
            return t * s.rho
        if isinstance(s, Halfspace):
            t = float(u @ s.u) / s._nsq
            resid = np.linalg.norm(u - t * s.u)
            if t < -INDICATOR_FEASIBILITY_TOL or resid > INDICATOR_FEASIBILITY_TOL * (
                1 + np.linalg.norm(u)
            ):
                return np.inf
            return max(t, 0.0) * s.rho
        raise NotImplementedError(f"no support function for {s.label}")


class L1Norm(ConvexFunction):
    """weight * ||.||_1; prox is soft thresholding."""

    label = "l1"
    real_valued = True

    def __init__(self, weight=1.0):
        if not weight >= 0:
            raise ParameterError("l1 weight must be nonnegative")
        self.weight = float(weight)

    def prox(self, gamma, x):
        _check_gamma(gamma)
        t = gamma * self.weight
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def __call__(self, x):
        return self.weight * float(np.sum(np.abs(x)))

    def conjugate(self, u):
        # indicator of the weight-radius sup-norm ball
        if np.max(np.abs(u)) <= self.weight * (1 + INDICATOR_FEASIBILITY_TOL) + INDICATOR_FEASIBILITY_TOL:
            return 0.0
        return np.inf


class QuadraticDistance(ConvexFunction):
    """(1/2) ||x - a||^2."""

    label = "sq_dist"
    real_valued = True

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float).reshape(-1)

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return (x + gamma * self.a) / (1.0 + gamma)

    def __call__(self, x):
        d = np.asarray(x, dtype=float) - self.a
        return 0.5 * float(d @ d)

    def conjugate(self, u):
        u = np.asarray(u, dtype=float)
        return float(self.a @ u) + 0.5 * float(u @ u)


class SquaredNorm(ConvexFunction):
    """omega * ||.||^2 with omega > 0."""

    label = "sq_norm"
    real_valued = True

    def __init__(self, omega):
        if not omega > 0:
            raise ParameterError("omega must be positive")
        self.omega = float(omega)

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return np.asarray(x, dtype=float) / (1.0 + 2.0 * gamma * self.omega)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.omega * float(x @ x)

    def conjugate(self, u):
        u = np.asarray(u, dtype=float)
        return float(u @ u) / (4.0 * self.omega)


# ---------------------------------------------------------------------------
# Resolvent calculus


def resolvent(A, gamma, x):
    """J_{gamma A}(x) = (Id + gamma A)^{-1} x."""
    _check_gamma(gamma)
    return A.resolvent(gamma, np.asarray(x, dtype=float))


def prox(f, gamma, x):
    """Unique minimizer of f + ||x - .||^2 / (2 gamma)."""
    _check_gamma(gamma)
    return f.prox(gamma, np.asarray(x, dtype=float))


def conjugate_prox(f, gamma, x):
    """prox_{gamma f*}(x) via the Moreau decomposition."""
    _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    return x - gamma * f.prox(1.0 / gamma, x / gamma)


def shifted_inverse_resolvent(A, r, gamma, x):
    """J_{gamma (r + A^{-1})}(x) = x - gamma (r + J_{A/gamma}(x/gamma - r)).

    The dual update kernel: resolves the shifted inverse operator using only
    the resolvent of A itself.
    """
    _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    return x - gamma * (r + A.resolvent(1.0 / gamma, x / gamma - r))


def yosida(B, gamma, x):
    """Yosida regularization (x - J_{gamma B} x) / gamma; (1/gamma)-Lipschitz."""
    _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    return (x - B.resolvent(gamma, x)) / gamma


def graph_distance(A, p, u):
    """Residual of the membership u in A(p), certified through the resolvent
    identity u in A(p) <=> p = J_A(p + u).  Returns the scaled distance."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    d = float(np.linalg.norm(p - A.resolvent(1.0, p + u)))
    return d / (1.0 + float(np.linalg.norm(p)) + float(np.linalg.norm(u)))

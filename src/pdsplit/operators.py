"""Catalog of maximally monotone operators and convex functions.

Set-valued operators are exposed exclusively through their resolvents
J_{gamma A} = (Id + gamma A)^{-1}, so ``AffineOperator`` has no forward
map (``AffineMap`` is x -> M x + b in the forward role); convex functions
through their proximity operators.  Each member's own
``resolvent(gamma, x)`` or ``prox(gamma, x)`` takes x as a list or an
array and refuses a step gamma <= 0.  Every catalog member is
defined on the whole space, keeps the parameters it was built with, and is
safe to evaluate concurrently.  The one piece of state is
``AffineOperator``'s memo of the inverse for its last step, built from M:
M and b must not be mutated in place after construction.  The memo
changes the cost of a call, never its value: every resolvent depends on
(gamma, x) alone.

Each set carries its support function, the conjugate of its indicator.
Tables declare how members join and what fits a block.  ``_SEPARABLE``
lists the separable members, whose parameters are each a scalar or one
value per coordinate.  ``_PER_BLOCK`` lists the sets whose parameters are
given per block, hyperplanes and halfspaces: vector parameters with one
entry per coordinate and scalar ones with one value per block.
``_VECTORS`` lists the vector parameters of the other members, which do
not join.  ``_WRAPPERS`` lists the members that wrap one, and
``_BLOCKWISE`` those that take the sizes of the blocks they were joined
over.  Through them ``runs`` finds, in one pass over the blocks, each run
of consecutive small blocks whose operators or functions are of one kind,
and ``join`` turns the members of a run into one: a separable one with a
parameter per coordinate, or a set given per block as one set with a
segment per block, whose projection is one vectorised expression over all
segments.  The solver's pair resolves a run of joined blocks in one call,
and ``reductions`` evaluates the objectives once per run: a joined value
or conjugate is the sum of the blocks' own, except that the two that
compare a norm with a threshold, a zero function's conjugate and an
indicator's value, compare each block's norm, so that joining moves no
+inf edge.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .blocks import ROUNDING_MARGIN, SMALL_BLOCK_DIM, ParameterError

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
    "runs",
    "join",
]

# Relative slack used when deciding whether a nearly-feasible point counts
# as feasible: ``ConvexSet.contains``, and through it indicator values and
# the hard constraints of a feasibility relaxation, all read this one value.
INDICATOR_FEASIBILITY_TOL = 1e-6


def _parameter(value, message, positive=False):
    """A parameter that must be finite and nonnegative (positive if
    ``positive``), given as a scalar, kept as a float, or as one value per
    coordinate, kept as a 1-D float array; ParameterError(message)
    otherwise, for NaN and inf too."""
    if isinstance(value, (int, float)):                # the common case, kept cheap
        value = float(value)
        ok = (value > 0 if positive else value >= 0) and value < np.inf
    else:
        arr = np.asarray(value, dtype=float)
        ok = np.all((arr > 0 if positive else arr >= 0) & (arr < np.inf))
        value = float(arr) if arr.ndim == 0 else arr.reshape(-1)
    if not ok:
        raise ParameterError(message)
    return value


def _check_gamma(gamma):
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")


def _finite(vec, message):
    """vec as a 1-D float array; ParameterError(message) unless every
    entry is finite."""
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if not np.isfinite(vec).all():
        raise ParameterError(message)
    return vec


def _affine(M, b):
    """(M, b) of x -> M x + b as float arrays, b zero when None;
    ParameterError unless M is square with M + M^T positive semidefinite
    and M and b are finite.  The test is a Cholesky factorization of
    (M + M^T)/2 + 1e-10 I, which exists, up to rounding, exactly when the
    smallest eigenvalue of (M + M^T)/2 lies above -1e-10; it costs about
    a third of an eigenvalue solve."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError("M must be square")
    if not np.isfinite(M).all():
        raise ParameterError("M must be finite")
    try:
        np.linalg.cholesky(0.5 * (M + M.T) + 1e-10 * np.eye(len(M)))
    except np.linalg.LinAlgError:
        raise ParameterError("M + M^T must be positive semidefinite") from None
    return M, np.zeros(len(M)) if b is None else _finite(b, "b must be finite")


class _Whole:
    """The one segment of a member that is not joined, whose parameters
    given per segment are floats: a segment's inner product is that of the
    whole arrays, and a value per segment spreads over them by
    broadcasting."""

    @staticmethod
    def dot(a, b):
        return float(a @ b)

    @staticmethod
    def spread(t):
        return t


class _Segments:
    """Consecutive segments of the sizes ``dims`` of a 1-D array of
    ``size`` entries: a parameter given per segment holds one value each,
    ``dot`` is the inner product on each segment, and ``spread`` copies a
    value per segment to each of its entries."""

    def __init__(self, size, dims):
        self.dims = tuple(int(d) for d in dims)
        if sum(self.dims) != size or min(self.dims, default=0) < 1:
            raise ParameterError(f"segment sizes {self.dims} must be positive "
                                 f"and add up to {size}")
        self._starts = np.cumsum((0,) + self.dims[:-1])
        self._index = np.repeat(np.arange(len(self.dims)), self.dims)

    def each(self, value):
        value = np.asarray(value, dtype=float).reshape(-1)
        if value.size != len(self.dims):
            raise ParameterError(f"{value.size} values for {len(self.dims)} segments")
        return value

    def dot(self, a, b):
        return np.add.reduceat(a * b, self._starts)

    def spread(self, t):
        return t[self._index]


_WHOLE = _Whole()


def _segments(dims):
    """_WHOLE, or with ``dims`` the segments of those sizes."""
    return _WHOLE if dims is None else _Segments(sum(dims), dims)


# ---------------------------------------------------------------------------
# Closed convex sets (projection targets)


class ConvexSet:
    def project(self, x):
        raise NotImplementedError

    def support(self, u):
        """sup_{x in C} <x, u> for a 1-D float array u; may be +inf."""
        raise NotImplementedError(f"no support function for {type(self).__name__}")

    def contains(self, x, seg=_WHOLE):
        """Whether x lies in the set up to a slack relative to its norm;
        with ``seg``, a ``_Segments``, whether each segment of x does, by
        its own norm."""
        x = np.asarray(x, dtype=float)
        d = x - self.project(x)
        return bool(np.all(np.sqrt(seg.dot(d, d))
                           <= INDICATOR_FEASIBILITY_TOL * (1.0 + np.sqrt(seg.dot(x, x)))))


class Box(ConvexSet):
    """Axis-aligned box; infinite bounds give orthants and the whole space.
    A coordinate with lo = hi = +inf or -inf would make it empty."""

    def __init__(self, lo, hi):
        self.lo = lo = np.asarray(lo, dtype=float).reshape(-1)
        self.hi = hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise ParameterError("box needs lo and hi of one shape")
        below = lo < hi                 # one pass; the rest only where it fails
        if not below.all():
            tie = lo[~below]
            if not np.all((tie == hi[~below]) & (abs(tie) < np.inf)):
                raise ParameterError("box needs lo <= hi componentwise, without NaN, "
                                     "and no lo = hi = +-inf")

    def project(self, x):
        return np.clip(x, self.lo, self.hi)

    def support(self, u):
        bound = np.where(u > 0, self.hi, self.lo)
        # a round-off residue facing an infinite bound counts as 0
        bound[np.isinf(bound) & (np.abs(u) <= INDICATOR_FEASIBILITY_TOL)] = 0.0
        return float(np.sum(u * bound))


class Ball(ConvexSet):
    """{x : ||x - center|| <= radius}; radius inf is the whole space."""

    def __init__(self, center, radius):
        self.center = _finite(center, "ball needs a finite center")
        self.radius = float(radius)
        if not self.radius >= 0:
            raise ParameterError("radius must be nonnegative")

    def project(self, x):
        d = x - self.center
        n = np.linalg.norm(d)
        if n <= self.radius:
            return np.array(x, dtype=float)
        return self.center + (self.radius / n) * d

    def support(self, u):
        n = float(np.linalg.norm(u))
        # u = 0 adds 0, at radius inf too
        return float(self.center @ u) + (self.radius * n if n else 0.0)


class _Cut(ConvexSet):
    """A set cut out by the hyperplane <x, u> = rho, u nonzero, whose
    normal cone at a point of that hyperplane is {t u : t >= _T_MIN}.  With
    ``dims``, the direct sum of such sets on consecutive segments of those
    sizes, with a normal and an offset rho per segment.  A normal whose
    squared norm overflows is refused, as are inf and NaN."""

    def __init__(self, u, rho, dims=None):
        self.u = u = np.asarray(u, dtype=float).reshape(-1)
        if dims is None:                # the common case, kept cheap: no arrays
            # vdot is u @ u, bit for bit, but flags no overflow, refused below
            self._seg, self.rho, self._nsq = _WHOLE, float(rho), float(np.vdot(u, u))
            ok = abs(self.rho) < np.inf and 0 < self._nsq < np.inf
        else:
            self._seg = seg = _Segments(u.size, dims)
            with np.errstate(over="ignore"):
                self.rho, self._nsq = seg.each(rho), seg.dot(u, u)
            ok = np.all((abs(self.rho) < np.inf) & (0 < self._nsq) & (self._nsq < np.inf))
        if not ok:
            raise ParameterError(f"{type(self).__name__.lower()} needs a finite rho and "
                                 "a nonzero normal u with a finite norm")

    def project(self, x):
        # on each segment, x moves along u by its excess <x, u> - rho, at
        # least _T_MIN, over ||u||^2; a Hyperplane's -inf skips the clamp
        excess = self._seg.dot(x, self.u) - self.rho
        if self._T_MIN > -np.inf:
            excess = np.maximum(excess, self._T_MIN)
        return x - self._seg.spread(excess / self._nsq) * self.u

    def support(self, u):
        """The sum over the segments of t * rho where u = t * self.u, up to
        round-off, with t >= _T_MIN (a t below it by round-off counts as
        _T_MIN); inf where u is off that line or t lies further below."""
        seg = self._seg
        t = seg.dot(u, self.u) / self._nsq
        off = u - seg.spread(t) * self.u
        tol = INDICATOR_FEASIBILITY_TOL * (1 + np.sqrt(seg.dot(u, u)))
        if (np.any(np.sqrt(seg.dot(off, off)) > tol)
                or np.any(t < self._T_MIN - INDICATOR_FEASIBILITY_TOL)):
            return np.inf
        return float(np.sum(np.maximum(t, self._T_MIN) * self.rho))


class Halfspace(_Cut):
    """{x : <x, u> <= rho}."""

    _T_MIN = 0.0


class Hyperplane(_Cut):
    """{x : <x, u> = rho}."""

    _T_MIN = -np.inf


class Point(ConvexSet):
    def __init__(self, c):
        self.c = _finite(c, "point needs a finite c")

    def project(self, x):
        return self.c.copy()

    def support(self, u):
        return float(self.c @ u)


# ---------------------------------------------------------------------------
# Maximally monotone operators


class MonotoneOperator:
    """Maximally monotone operator exposed through its resolvent."""

    def resolvent(self, gamma, x):
        raise NotImplementedError


class ZeroOperator(MonotoneOperator):
    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return np.array(x, dtype=float)


class ScaledIdentity(MonotoneOperator):
    """c * Id with c >= 0, a scalar or one value per coordinate; resolvent
    x / (1 + gamma c)."""

    def __init__(self, c):
        self.c = _parameter(c, "scaled identity needs c >= 0 and finite")

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return np.asarray(x, dtype=float) / (1.0 + gamma * self.c)


class AffineOperator(MonotoneOperator):
    """x -> M x + b with M + M^T positive semidefinite.

    The resolvent is inv(I + gamma M) (x - gamma b).  The inverses of the
    four most recently inverted steps are kept, so a solve that alternates
    its iteration steps (three where two iterations are redone at smaller
    ones) with the unit step of the probe and the certificate inverts each
    once, and each later call at any of them is one matvec.  Every call
    goes through the inverse for its own step, so the result depends on
    (gamma, x) alone, not on the steps called before.
    """

    def __init__(self, M, b=None):
        self.M, self.b = _affine(M, b)
        # {step: inv(I + step M)} for at most four steps, replaced in one
        # assignment so that readers see a consistent memo
        self._inv = {}

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        memo = self._inv
        inv = memo.get(gamma)
        if inv is None:
            inv = np.linalg.inv(np.eye(len(self.M)) + gamma * self.M)
            kept = list(memo.items())[-3:]      # the newer three of the four
            self._inv = dict(kept + [(gamma, inv)])
        return inv @ (x - gamma * self.b)


class NormalCone(MonotoneOperator):
    """Normal cone of a closed convex set; resolvent is the projection."""

    def __init__(self, cset):
        self.set = cset

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return self.set.project(x)


class SubdifferentialOperator(MonotoneOperator):
    """Subdifferential of a convex function; resolvent is the prox."""

    def __init__(self, fn):
        self.fn = fn

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return self.fn.prox(gamma, x)


# ---------------------------------------------------------------------------
# Single-valued monotone Lipschitz operators


class LipschitzOperator:
    """Monotone single-valued operator with a declared Lipschitz constant."""

    def __init__(self, fn, lipschitz):
        if not 0 <= lipschitz < np.inf:
            raise ParameterError(f"Lipschitz constant must be nonnegative and finite, "
                                 f"got {lipschitz}")
        self._fn = fn
        self.lipschitz = float(lipschitz)

    def __call__(self, x):
        return self._fn(x)


class ZeroMap(LipschitzOperator):
    def __init__(self):
        super().__init__(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0)


class ScaledIdentityMap(LipschitzOperator):
    """x -> c x + b with c >= 0, a scalar or one value per coordinate; the
    shift b defaults to zero."""

    def __init__(self, c, b=None):
        self.c = _parameter(c, "scaled identity map needs c >= 0 and finite")
        if b is None:
            self.b = 0.0
            fn = lambda x: self.c * np.asarray(x, dtype=float)
        else:
            self.b = _finite(b, "scaled identity map needs a finite b")
            fn = lambda x: self.c * np.asarray(x, dtype=float) + self.b
        lipschitz = self.c if isinstance(self.c, float) else float(np.max(self.c, initial=0.0))
        super().__init__(fn, lipschitz)


class AffineMap(LipschitzOperator):
    """x -> M x + b with M + M^T positive semidefinite; its Lipschitz bound
    is the SVD norm of M times 1 + ROUNDING_MARGIN."""

    def __init__(self, M, b=None):
        self.M, self.b = _affine(M, b)
        const = float(np.linalg.norm(self.M, 2)) * (1.0 + ROUNDING_MARGIN)
        super().__init__(lambda x: self.M @ x + self.b, const)


# ---------------------------------------------------------------------------
# Convex functions (prox + optional value / conjugate value)


class ConvexFunction:
    """A convex function through its prox.  A differentiable member also
    has a ``gradient``, a LipschitzOperator."""

    def prox(self, gamma, x):
        raise NotImplementedError

    def __call__(self, x):
        """Function value; may be +inf.  Raises if no evaluator exists."""
        raise NotImplementedError(f"{type(self).__name__} has no value evaluator")

    def conjugate(self, u):
        raise NotImplementedError(f"{type(self).__name__} has no conjugate evaluator")

    def subdifferential(self):
        return SubdifferentialOperator(self)


class ZeroFunction(ConvexFunction):
    """The zero function.  Joined over blocks of sizes ``dims``, its
    conjugate tests the norm of each block, as the blocks' own do."""

    gradient = ZeroMap()

    def __init__(self, dims=None):
        self._seg = _segments(dims)

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return np.array(x, dtype=float)

    def __call__(self, x):
        return 0.0

    def conjugate(self, u):
        u = np.asarray(u, dtype=float)
        n = np.sqrt(self._seg.dot(u, u))
        return 0.0 if np.all(n <= INDICATOR_FEASIBILITY_TOL) else np.inf


class IndicatorFunction(ConvexFunction):
    """iota_C; prox is the projection, value 0 on C (+inf off it).  Joined
    over blocks of sizes ``dims``, its value tests each block against the
    set's slack (``ConvexSet.contains``), as the blocks' own do."""

    def __init__(self, cset, dims=None):
        self.set = cset
        self._seg = _segments(dims)

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return self.set.project(x)

    def __call__(self, x):
        if self.set.contains(x, self._seg):
            return 0.0
        return np.inf

    def conjugate(self, u):
        return self.set.support(np.asarray(u, dtype=float).reshape(-1))


class L1Norm(ConvexFunction):
    """sum_j weight_j |x_j|, the weight a scalar or one value per
    coordinate; prox is soft thresholding."""

    def __init__(self, weight=1.0):
        self.weight = _parameter(weight, "l1 weight must be nonnegative and finite")

    def prox(self, gamma, x):
        _check_gamma(gamma)
        t = gamma * self.weight
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def __call__(self, x):
        return float(np.sum(self.weight * np.abs(x)))

    def conjugate(self, u):
        # indicator of the box |u_j| <= weight_j
        slack = self.weight * (1 + INDICATOR_FEASIBILITY_TOL) + INDICATOR_FEASIBILITY_TOL
        return 0.0 if np.all(np.abs(u) <= slack) else np.inf


class QuadraticDistance(ConvexFunction):
    """(1/2) ||x - a||^2."""

    def __init__(self, a):
        self.a = _finite(a, "quadratic distance needs a finite a")

    @cached_property
    def gradient(self):
        return ScaledIdentityMap(1.0, -self.a)

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
    """sum_j omega_j x_j^2 with omega > 0, a scalar or one value per
    coordinate, in the range where 2 omega, the scale of its gradient, and
    0.5 / omega, that of its conjugate's gradient, are finite: about
    2.8e-309 <= omega <= 8.9e307."""

    def __init__(self, omega):
        self.omega = omega = _parameter(omega, "omega must be positive and finite",
                                        positive=True)
        with np.errstate(over="ignore"):
            ok = np.all((2.0 * omega < np.inf) & (0.5 / omega < np.inf))
        if not ok:
            raise ParameterError("omega needs 2 omega and 0.5 / omega finite "
                                 "(about 2.8e-309 <= omega <= 8.9e307)")

    @cached_property
    def gradient(self):
        return ScaledIdentityMap(2.0 * self.omega)

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return np.asarray(x, dtype=float) / (1.0 + 2.0 * gamma * self.omega)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(self.omega * x * x))

    def conjugate(self, u):
        u = np.asarray(u, dtype=float)
        return float(np.sum(u * u / (4.0 * self.omega)))


# ---------------------------------------------------------------------------
# Direct sums of separable operators


# The separable classes with their per-coordinate parameters in constructor
# order; the sets whose parameters are given per block, with their vector
# parameters, one entry per coordinate, and their scalar ones, one value per
# block, in constructor order; the other classes with vector parameters, one
# entry per coordinate, which do not join; and the classes that wrap another
# member with the attribute holding it.  Last, the classes that take
# ``dims``, the sizes of the blocks they were joined over: the sets given per
# block, and the functions whose value or conjugate compares a norm with a
# threshold, which a joined one compares on each block.  Then the innermost
# classes that join.
_SEPARABLE = {ZeroOperator: (), ScaledIdentity: ("c",), Box: ("lo", "hi"), ZeroFunction: (),
              L1Norm: ("weight",), QuadraticDistance: ("a",), SquaredNorm: ("omega",),
              ScaledIdentityMap: ("c", "b")}
_PER_BLOCK = {Hyperplane: (("u",), ("rho",)), Halfspace: (("u",), ("rho",))}
_VECTORS = {Ball: ("center",), Point: ("c",), AffineOperator: ("b",), AffineMap: ("b",)}
_WRAPPERS = {NormalCone: "set", SubdifferentialOperator: "fn", IndicatorFunction: "set"}
_BLOCKWISE = (Hyperplane, Halfspace, ZeroFunction, IndicatorFunction)
_JOINABLE = _SEPARABLE.keys() | _PER_BLOCK.keys()


def _unwrap(op):
    """The classes of op and of the members it wraps, outermost first, and
    the innermost member."""
    kinds = (type(op),)
    while kinds[-1] in _WRAPPERS:
        op = getattr(op, _WRAPPERS[kinds[-1]])
        kinds += (type(op),)
    return kinds, op


def _spread(values, dims):
    """One parameter of the members of a run of blocks of sizes ``dims``,
    each a float or an array of 1 or its block's entries, as one float
    array of a value per coordinate: one ``np.repeat`` when all are floats,
    else each array of its block's size as it is and the rest filled in."""
    if all(isinstance(v, float) for v in values):
        return np.repeat(values, dims)
    return np.concatenate([v if not isinstance(v, float) and v.size == d else np.full(d, v)
                           for v, d in zip(values, dims)])


def runs(ops, slices):
    """(member, slice, range of block indices) for the blocks of ``slices``
    in order, ``ops`` holding one operator or function per block, found in
    one pass.  Each maximal run of two or more consecutive blocks of at most
    SMALL_BLOCK_DIM coordinates whose members are of one class and wrap
    members of one class, the innermost one separable or given per block,
    is their joined member (``join``) on the run's slice; every other block
    keeps its own member and slice.  A member of a subclass, which may act
    otherwise, joins nothing.  Each member on a small block is unwrapped
    once, one on a larger block never.  The members are a problem's, so
    each fits its block, which ``join`` takes as given."""
    n = len(ops)
    dims = [sl.stop - sl.start for sl in slices]
    unwrapped = [_unwrap(op) if d <= SMALL_BLOCK_DIM else (None, op)
                 for op, d in zip(ops, dims)]
    out, j = [], 0
    while j < n:
        kinds, stop = unwrapped[j][0], j + 1
        if kinds is not None and kinds[-1] in _JOINABLE:
            while stop < n and unwrapped[stop][0] == kinds:
                stop += 1
        if stop - j > 1:
            member = join(kinds, [inner for _, inner in unwrapped[j:stop]], dims[j:stop])
            out.append((member, slice(slices[j].start, slices[stop - 1].stop), range(j, stop)))
        else:
            out.append((ops[j], slices[j], range(j, stop)))
        j = stop
    return out


def join(kinds, inners, dims):
    """The direct sum of members of the classes ``kinds``, outermost first,
    whose innermost members ``inners`` act on consecutive blocks of sizes
    ``dims``, member j on block j, as one member of those classes.  The
    caller guarantees that they join, as ``runs`` does: two or more, one
    per block, the innermost class separable or given per block, and each
    fitting its block (``misfit`` is None), which the problems check at
    construction (``check_fit``).

    A separable one holds a value per coordinate for each parameter, joined
    by ``_spread`` without a broadcast per member, and its resolvent (or
    value, for a Lipschitz map) on the joined vector is, coordinate for
    coordinate, the same arithmetic as the per-block ones.  So are a joined
    function's prox, and its value and conjugate up to the order of
    summation, except where they test a norm: the conjugate of a
    ``ZeroFunction`` and the value of an ``IndicatorFunction`` test each
    block's norm, as the blocks' own do.  A set given per block is the
    concatenation of its vector parameters with a segment per block, whose
    projection acts on each segment as the block's own does, summing over a
    segment in its own order; a joined set joins again."""
    kind = kinds[-1]
    if kind in _SEPARABLE:
        segments = tuple(dims)
        params = [_spread([getattr(inner, name) for inner in inners], dims)
                  for name in _SEPARABLE[kind]]
    else:
        vectors, scalars = _PER_BLOCK[kind]
        # a segment per block, or the segments of a joined one
        segments = sum((getattr(inner._seg, "dims", (d,)) for inner, d in zip(inners, dims)), ())
        params = [np.hstack([getattr(inner, name) for inner in inners])
                  for name in vectors + scalars]
    for k in reversed(kinds):           # the innermost member first, then its wrappers
        joined = k(*params, dims=segments) if k in _BLOCKWISE else k(*params)
        params = [joined]
    return joined


def misfit(op, d):
    """Why catalog operator op does not fit a block of dimension d, or None:
    a separable parameter needs 1 or d values, any other vector parameter
    d, and an affine one's M is d x d.  Sizes alone are read; callables and
    subclasses are not checked."""
    kinds, inner = _unwrap(op)
    kind = kinds[-1]
    if kind in (AffineOperator, AffineMap) and inner.M.shape != (d, d):
        return f"M has shape {inner.M.shape} for a block of dimension {d}"
    names, sizes = _SEPARABLE.get(kind), (1, d)
    if names is None:
        vectors = _PER_BLOCK[kind][0] if kind in _PER_BLOCK else _VECTORS.get(kind, ())
        names, sizes = vectors, (d,)
    for name in names:
        n = getattr(getattr(inner, name), "size", 1)      # a scalar is kept as a float
        if n not in sizes:
            return f"{name} has {n} entries for a block of dimension {d}"
    return None


def check_role(name, op, cls):
    """ParameterError "<name>: <type> is not a <class>" unless op is a cls."""
    if not isinstance(op, cls):
        raise ParameterError(f"{name}: {type(op).__name__} is not a {cls.__name__}")


def check_roles(role, ops, cls, first=1):
    """``check_role`` on each of ops, named "<role> <index>" from index
    ``first`` on; a name is formatted only for the member that fails."""
    for i, op in enumerate(ops, first):
        if not isinstance(op, cls):
            check_role(f"{role} {i}", op, cls)


def check_fit(roles):
    """ParameterError naming the first member that does not fit its block
    (``misfit``), as "<role> <1-based index>: <why>"; ``roles`` holds
    (role, members, block dimensions) triples.  A triple (role, member,
    dimension), with an int dimension, names its one member "<role>: <why>"."""
    for role, ops, dims in roles:
        named = ([(role, ops, dims)] if isinstance(dims, int) else
                 [(f"{role} {i}", op, d) for i, (op, d) in enumerate(zip(ops, dims), 1)])
        for name, op, d in named:
            why = misfit(op, d)
            if why is not None:
                raise ParameterError(f"{name}: {why}")

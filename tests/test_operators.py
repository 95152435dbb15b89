from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import (
    AffineMap,
    AffineOperator,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    IndicatorFunction,
    L1Norm,
    LipschitzOperator,
    NormalCone,
    ParameterError,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    ScaledIdentityMap,
    SquaredNorm,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
    conjugate_prox,
    graph_distance,
    prox,
    resolvent,
    shifted_inverse_resolvent,
    yosida,
)
from oracles import resolvent_bisection
from pdsplit.blocks import SMALL_BLOCK_DIM
from pdsplit.operators import join, join_key


def catalog_resolvents(rng, d):
    M = rng.standard_normal((d, d))
    return [
        ZeroOperator(),
        ScaledIdentity(1.3),
        AffineOperator(M @ M.T / d + 0.1 * np.eye(d)),
        NormalCone(Box(-np.ones(d), np.ones(d))),
        NormalCone(Ball(np.zeros(d), 1.0)),
        NormalCone(Halfspace(np.ones(d), 1.0)),
        NormalCone(Hyperplane(np.ones(d), 0.5)),
        NormalCone(Point(np.zeros(d))),
        L1Norm(0.7).subdifferential(),
        QuadraticDistance(np.ones(d)).subdifferential(),
        SquaredNorm(0.4).subdifferential(),
    ]


# --- resolvents --------------------------------------------------------------

def test_resolvent_zero_operator():
    np.testing.assert_array_equal(
        resolvent(ZeroOperator(), 0.7, [4.0, -1.0]), [4.0, -1.0]
    )


def test_resolvent_identity_operator():
    assert resolvent(ScaledIdentity(1.0), 1.0, [3.0])[0] == pytest.approx(1.5)


def test_resolvent_normal_cone_projects():
    A = NormalCone(Box([0.0], [np.inf]))
    assert resolvent(A, 2.0, [-5.0])[0] == 0.0


def test_resolvent_rejects_bad_gamma():
    with pytest.raises(ParameterError):
        resolvent(ZeroOperator(), 0.0, [1.0])
    with pytest.raises(ParameterError):
        prox(ZeroFunction(), -1.0, [1.0])


# --- prox --------------------------------------------------------------------

def test_prox_soft_threshold():
    assert prox(L1Norm(1.0), 1.0, [3.0])[0] == pytest.approx(2.0)


def test_prox_box_projection():
    out = prox(IndicatorFunction(Box([0, 0], [1, 1])), 5.0, [2.0, -1.0])
    np.testing.assert_array_equal(out, [1.0, 0.0])


def test_prox_quadratic_distance():
    out = prox(QuadraticDistance([1.0, 1.0]), 3.0, [5.0, 5.0])
    np.testing.assert_allclose(out, [2.0, 2.0])


def test_prox_minimizes_objective(rng):
    # grid check in 1-D: prox minimizes f + ||x-.||^2/(2 gamma)
    fns = [L1Norm(0.8), QuadraticDistance([0.3]), SquaredNorm(0.6)]
    grid = np.linspace(-5, 5, 4001)
    for fn in fns:
        for _ in range(5):
            gamma = float(rng.uniform(0.2, 2.0))
            x = float(rng.uniform(-2, 2))
            p = fn.prox(gamma, np.array([x]))[0]
            obj = lambda y: fn(np.array([y])) + (x - y) ** 2 / (2 * gamma)
            assert obj(p) <= np.min([obj(y) for y in grid]) + 1e-5


# --- conjugate prox and Moreau ----------------------------------------------

def test_conjugate_prox_l1_projects_onto_interval():
    assert conjugate_prox(L1Norm(1.0), 1.0, [3.0])[0] == pytest.approx(1.0)


def test_conjugate_prox_zero_function():
    np.testing.assert_allclose(conjugate_prox(ZeroFunction(), 2.5, [7.0, -3.0]),
                               [0.0, 0.0])


def test_conjugate_prox_self_conjugate_quadratic():
    # omega = 1/2 makes ||.||^2/2 self-conjugate
    f = SquaredNorm(0.5)
    assert conjugate_prox(f, 1.0, [4.0])[0] == pytest.approx(
        f.prox(1.0, np.array([4.0]))[0]
    ) == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_moreau_decomposition(seed):
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(0.1, 3.0))
    x = rng.standard_normal(3)
    for fn in (ZeroFunction(), L1Norm(1.0), QuadraticDistance(np.ones(3)),
               SquaredNorm(0.5), IndicatorFunction(Box(-np.ones(3), np.ones(3)))):
        # unit-step split is exact ...
        np.testing.assert_allclose(
            fn.prox(1.0, x) + conjugate_prox(fn, 1.0, x), x, atol=1e-12
        )
        # ... and so is the scaled decomposition
        np.testing.assert_allclose(
            fn.prox(gamma, x) + gamma * conjugate_prox(fn, 1.0 / gamma, x / gamma),
            x, atol=1e-12,
        )


# --- shifted inverse resolvent ----------------------------------------------

def test_shifted_inverse_linear_case():
    assert shifted_inverse_resolvent(ScaledIdentity(1.0), [0.0], 2.0, [6.0])[
        0
    ] == pytest.approx(2.0)


def test_shifted_inverse_zero_inverse():
    # inverse of the normal cone of {0} is the zero map, so the resolvent
    # reduces to the shift x - gamma r
    A = NormalCone(Point([0.0]))
    assert shifted_inverse_resolvent(A, [1.0], 3.0, [10.0])[0] == pytest.approx(7.0)


def test_shifted_inverse_matches_scalar_bisection():
    # A = subdifferential of |.|; solve x in p + gamma (r + A^{-1})(p) by
    # bisection on the inverse graph (an interval-valued step function)
    gamma, x = 1.0, 0.5

    def inv_graph(p):  # A^{-1}(p) = 0 for |p|<1, [0,inf) at p=1, etc.
        if p < -1.0 + 1e-14:
            return (-np.inf, 0.0)
        if p > 1.0 - 1e-14:
            return (0.0, np.inf)
        return (0.0, 0.0)

    want = resolvent_bisection(inv_graph, gamma, x)
    got = shifted_inverse_resolvent(
        L1Norm(1.0).subdifferential(), [0.0], gamma, [x]
    )[0]
    assert got == pytest.approx(want, abs=1e-9)


def test_shifted_inverse_closed_form_scaled_identity(rng):
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.2, 2.0))
        x, r = rng.standard_normal(3), rng.standard_normal(3)
        got = shifted_inverse_resolvent(ScaledIdentity(c), r, gamma, x)
        np.testing.assert_allclose(got, (x - gamma * r) / (1.0 + gamma / c),
                                   atol=1e-10)


# --- yosida ------------------------------------------------------------------

def test_yosida_point_cone():
    assert yosida(NormalCone(Point([0.0])), 2.0, [6.0])[0] == pytest.approx(3.0)


def test_yosida_zero_operator():
    np.testing.assert_allclose(yosida(ZeroOperator(), 0.3, [1.0, -2.0]), 0.0)


def test_yosida_projection_residual():
    assert yosida(NormalCone(Box([0.0], [1.0])), 1.0, [3.0])[0] == pytest.approx(2.0)


def test_yosida_lipschitz_bound(rng):
    B = NormalCone(Box(np.zeros(3), np.ones(3)))
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 3.0))
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        diff = np.linalg.norm(yosida(B, gamma, x) - yosida(B, gamma, y))
        assert diff <= np.linalg.norm(x - y) / gamma * (1 + 1e-10)


# --- firm nonexpansiveness and membership ------------------------------------

def test_firm_nonexpansiveness(rng):
    for op in catalog_resolvents(rng, 3):
        for _ in range(100):
            gamma = float(rng.uniform(0.1, 3.0))
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            jx, jy = op.resolvent(gamma, x), op.resolvent(gamma, y)
            d = jx - jy
            assert float(d @ d) <= float((x - y) @ d) + 1e-10


def test_resolvent_inclusion_certified(rng):
    # (x - p)/gamma lies in A(p): the graph distance vanishes at resolvents
    for op in catalog_resolvents(rng, 3):
        for _ in range(20):
            gamma = float(rng.uniform(0.1, 3.0))
            x = rng.standard_normal(3)
            p = op.resolvent(gamma, x)
            assert graph_distance(op, p, (x - p) / gamma) <= 1e-8


def test_graph_distance_positive_off_graph():
    A = NormalCone(Box([0.0], [1.0]))
    # -1 is not in N_[0,1](0.5) = {0}
    assert graph_distance(A, [0.5], [-1.0]) > 0.01


# --- sets --------------------------------------------------------------------

def test_set_projections(rng):
    x = np.array([2.0, -1.0])
    np.testing.assert_array_equal(Box([0, 0], [1, 1]).project(x), [1.0, 0.0])
    np.testing.assert_allclose(
        Ball([0, 0], 1.0).project(x), x / np.linalg.norm(x)
    )
    np.testing.assert_allclose(Hyperplane([1, 0], 0.0).project(x), [0.0, -1.0])
    np.testing.assert_allclose(Halfspace([1, 0], 3.0).project(x), x)
    np.testing.assert_array_equal(Point([5.0, 5.0]).project(x), [5.0, 5.0])
    assert Box([0, 0], [1, 1]).contains([0.5, 0.5])
    assert not Box([0, 0], [1, 1]).contains([2.0, 0.5])


def test_indicator_conjugates_are_support_functions():
    u = np.array([1.0, -2.0])
    assert IndicatorFunction(Box([0, 0], [1, 1])).conjugate(u) == pytest.approx(1.0)
    assert IndicatorFunction(Point([3.0, 1.0])).conjugate(u) == pytest.approx(1.0)
    assert IndicatorFunction(Ball([0, 0], 2.0)).conjugate(u) == pytest.approx(
        2.0 * np.linalg.norm(u)
    )
    # hyperplane support is finite only along the normal
    hp = IndicatorFunction(Hyperplane([1.0, 0.0], 2.0))
    assert hp.conjugate(np.array([3.0, 0.0])) == pytest.approx(6.0)
    assert hp.conjugate(u) == np.inf


def test_box_support_function_with_infinite_bounds():
    # sigma_C(u) = sum_j u_j * (hi_j if u_j > 0 else lo_j), where a zero
    # component facing an infinite bound adds 0, not 0 * inf = NaN
    orthant = IndicatorFunction(Box([-np.inf, 0.0], [1.0, np.inf]))
    assert orthant.conjugate([0.0, -1.0]) == 0.0
    assert orthant.conjugate([2.0, 0.0]) == 2.0
    # round-off residues facing an infinite bound count as 0 too ...
    assert orthant.conjugate([-1e-9, 1e-12]) == 0.0
    # ... but a real component does not, and a finite bound keeps its term
    assert orthant.conjugate([-1e-3, 0.0]) == np.inf
    assert orthant.conjugate([2.0, -1e-9]) == pytest.approx(2.0)
    finite = IndicatorFunction(Box([-1.0, 0.0], [1.0, 2.0]))
    assert finite.conjugate([-3.0, 2.0]) == 7.0
    assert finite.conjugate([1e-9, 0.0]) == 1e-9


def test_halfspace_support_function():
    # finite only along the outward normal: t rho for u = t n with t >= 0,
    # 0 for a round-off t just below 0, +inf below that or off the normal
    n = np.array([3.0, 4.0])
    hs = IndicatorFunction(Halfspace(n, 2.0))
    assert hs.conjugate(2.5 * n) == pytest.approx(5.0)
    assert hs.conjugate(0.0 * n) == 0.0
    assert hs.conjugate(-1e-7 * n) == 0.0
    assert hs.conjugate(-1e-3 * n) == np.inf
    assert hs.conjugate([4.0, -3.0]) == np.inf
    assert hs.conjugate(2.5 * n + [1e-3, 0.0]) == np.inf


def test_affine_classes_take_only_a_square_monotone_matrix():
    for make in (AffineOperator, AffineMap):
        with pytest.raises(ParameterError, match="square"):
            make(np.ones((2, 3)))
        with pytest.raises(ParameterError, match="semidefinite"):
            make(-np.eye(2))


def test_affine_map_bound_is_at_least_the_svd_norm(rng):
    # sqrt(max eig(M^T M)) can round below ||M||_2; the bound may not
    for _ in range(300):
        d = int(rng.integers(2, 7))
        W, S = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        M = W @ W.T / d + 0.5 * (S - S.T)
        assert AffineMap(M).lipschitz >= np.linalg.norm(M, 2)


def _skew_affine(rng, d=7):
    """(M, b): M positive semidefinite plus a skew part, so not symmetric."""
    W, S = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    return W @ W.T / d + 0.5 * (S - S.T), rng.standard_normal(d)


def _dense_resolvent(M, b, gamma, x):
    return np.linalg.solve(np.eye(len(M)) + gamma * M, x - gamma * b)


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("via", ["resolvent", "shifted_inverse_resolvent"])
def test_affine_resolvent_matches_a_fresh_solve_across_step_changes(via):
    # the memo of the last step's inverse must never serve another step
    rng = np.random.default_rng(3)
    M, b = _skew_affine(rng)
    op, r, g = AffineOperator(M, b), rng.standard_normal(7), 0.37
    for step in (g, g, g, 1.0, g, g, 1 / g, g, 1 / g, 1 / g):
        x = rng.standard_normal(7)
        if via == "resolvent":
            got, want = op.resolvent(step, x), _dense_resolvent(M, b, step, x)
        else:
            got = shifted_inverse_resolvent(op, r, step, x)
            want = x - step * (r + _dense_resolvent(M, b, 1 / step, x / step - r))
        assert _rel_err(got, want) <= 1e-12, step


def test_affine_resolvent_inverts_once_per_step_change(monkeypatch):
    rng = np.random.default_rng(4)
    M, b = _skew_affine(rng)
    x = rng.standard_normal(7)
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(1) or inv(a))
    op = AffineOperator(M, b)
    for _ in range(50):
        op.resolvent(0.5, x)
    assert len(inversions) == 1
    # steps alternating in pairs: the memo serves the second call of each pair
    op = AffineOperator(M, b)
    for n in range(50):
        op.resolvent((0.5, 2.0)[n // 2 % 2], x)
    assert len(inversions) == 1 + 25


def test_affine_resolvent_is_right_under_two_threads_at_two_steps():
    rng = np.random.default_rng(5)
    M, b = _skew_affine(rng)
    op, xs = AffineOperator(M, b), rng.standard_normal((200, 7))

    def worst(step):
        return max(_rel_err(op.resolvent(step, x), _dense_resolvent(M, b, step, x))
                   for x in xs)

    with ThreadPoolExecutor(max_workers=2) as pool:
        assert max(pool.map(worst, (0.3, 2.5))) <= 1e-12


def test_constructors_reject_nan():
    nan = float("nan")
    for make in (lambda: ScaledIdentity(nan), lambda: ScaledIdentityMap(nan),
                 lambda: L1Norm(nan), lambda: Ball([0.0], nan),
                 lambda: Box([nan], [1.0]), lambda: Box([0.0], [nan])):
        with pytest.raises(ParameterError):
            make()
    # infinite bounds still give orthants and the whole line
    assert Box([-np.inf], [np.inf]).project(np.array([3.0]))[0] == 3.0


def test_separable_members_take_one_parameter_per_coordinate():
    w = np.array([0.5, 2.0])
    f = L1Norm(w)
    np.testing.assert_array_equal(f.prox(1.0, np.array([1.0, 1.0])), [0.5, 0.0])
    assert f([1.0, -3.0]) == 6.5
    assert f.conjugate([0.5, -2.0]) == 0.0 and f.conjugate([0.6, 0.0]) == np.inf
    g = SquaredNorm(w)
    assert g(np.array([2.0, 1.0])) == 4.0
    assert g.conjugate([1.0, 4.0]) == 2.5
    np.testing.assert_array_equal(g.prox(1.0, np.array([2.0, 5.0])), [1.0, 1.0])
    np.testing.assert_array_equal(ScaledIdentity(w).resolvent(2.0, [2.0, 5.0]), [1.0, 1.0])
    M = ScaledIdentityMap(w, [1.0, 0.0])
    np.testing.assert_array_equal(M([2.0, 1.0]), [2.0, 2.0])
    assert M.lipschitz == 2.0
    nan = float("nan")
    for make in (ScaledIdentity, ScaledIdentityMap, L1Norm, SquaredNorm):
        for bad in ([1.0, -1.0], [1.0, nan]):
            with pytest.raises(ParameterError):
                make(bad)
    with pytest.raises(ParameterError):
        SquaredNorm([1.0, 0.0])
    # a scalar stays a float, however it is given
    assert isinstance(L1Norm(np.float64(2.0)).weight, float)
    assert isinstance(ScaledIdentity(np.array(1.0)).c, float)
    assert isinstance(SquaredNorm(1).omega, float)


# --- joins of separable operators ------------------------------------------

def _param(rng, d, low):
    """A scalar, a length-1 vector that broadcasts, or one value per coordinate."""
    kind = int(rng.integers(3))
    if kind == 0:
        return float(rng.uniform(low, 2.0))
    return rng.uniform(low, 2.0, 1 if kind == 1 else d)


def _box(rng, d):
    size = 1 if rng.random() < 0.3 else d
    lo, hi = -rng.uniform(0.0, 2.0, size), rng.uniform(0.0, 2.0, size)
    lo[rng.random(size) < 0.2] = -np.inf
    hi[rng.random(size) < 0.2] = np.inf
    return Box(lo, hi)


JOINABLE = {
    "zero": lambda rng, d: ZeroOperator(),
    "scaled_identity": lambda rng, d: ScaledIdentity(_param(rng, d, 0.0)),
    "normal_cone_box": lambda rng, d: NormalCone(_box(rng, d)),
    "zero_fn": lambda rng, d: ZeroFunction().subdifferential(),
    "l1": lambda rng, d: L1Norm(_param(rng, d, 0.0)).subdifferential(),
    "sqdist": lambda rng, d: QuadraticDistance(
        rng.standard_normal(1 if rng.random() < 0.3 else d)).subdifferential(),
    "sqnorm": lambda rng, d: SquaredNorm(_param(rng, d, 0.1)).subdifferential(),
    "indicator_box": lambda rng, d: IndicatorFunction(_box(rng, d)).subdifferential(),
}


@pytest.mark.parametrize("name", sorted(JOINABLE))
def test_joined_resolvent_is_the_per_block_one_bitwise(name):
    rng = np.random.default_rng(sorted(JOINABLE).index(name))
    dims = [int(d) for d in rng.permutation(np.arange(1, SMALL_BLOCK_DIM + 1))]
    ops = [JOINABLE[name](rng, d) for d in dims]
    joined = join(ops, dims)
    assert type(joined) is type(ops[0]) and join_key(joined) == join_key(ops[0])
    cuts = np.cumsum(dims)[:-1]
    for gamma in (0.3, 1.0, 7.0):
        x, r = 3.0 * rng.standard_normal(sum(dims)), rng.standard_normal(sum(dims))
        want = np.concatenate([op.resolvent(gamma, xi)
                               for op, xi in zip(ops, np.split(x, cuts))])
        assert np.array_equal(joined.resolvent(gamma, x), want)
        want = np.concatenate([
            shifted_inverse_resolvent(op, ri, gamma, xi)
            for op, ri, xi in zip(ops, np.split(r, cuts), np.split(x, cuts))])
        assert np.array_equal(shifted_inverse_resolvent(joined, r, gamma, x), want)


def test_joined_scaled_identity_map_is_the_per_block_one_bitwise():
    rng = np.random.default_rng(40)
    dims = [int(d) for d in rng.permutation(np.arange(1, SMALL_BLOCK_DIM + 1))]
    ops = [ScaledIdentityMap(_param(rng, d, 0.0),
                             None if rng.random() < 0.5 else _param(rng, d, -2.0))
           for d in dims]
    joined = join(ops, dims)
    assert type(joined) is ScaledIdentityMap
    assert joined.lipschitz == max(op.lipschitz for op in ops)
    x = 3.0 * rng.standard_normal(sum(dims))
    want = np.concatenate([op(xi) for op, xi in zip(ops, np.split(x, np.cumsum(dims)[:-1]))])
    assert np.array_equal(joined(x), want)


# --- joins of sets given per block ------------------------------------------

def _per_block_set(rng, kind, x, inside):
    """A set of ``kind`` on the block of x, holding x when ``inside``."""
    u = rng.standard_normal(x.size)
    if kind == "hyperplane":
        return Hyperplane(u, float(rng.uniform(-2.0, 2.0)))
    return Halfspace(u, float(x @ u) + (1.0 if inside else -1.0) * rng.uniform(0.1, 2.0))


def _rel(got, want, *operands):
    """||got - want|| relative to the operands and want: a projection's
    result may cancel, and summing in another order moves it by round-off
    of the operands' size."""
    scale = sum(float(np.linalg.norm(a)) for a in (want,) + operands)
    return float(np.linalg.norm(got - want)) / scale


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(["halfspace", "hyperplane"]),
       count=st.integers(2, 8),
    wrap=st.sampled_from([NormalCone, lambda s: IndicatorFunction(s).subdifferential()]))
def test_joined_set_projection_is_the_per_block_one(seed, kind, count, wrap):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 6, count)]
    cuts = np.cumsum(dims)[:-1]
    x = 3.0 * rng.standard_normal(sum(dims))
    xs = np.split(x, cuts)
    inside = rng.random(count) < 0.5           # each block on either side
    ops = [wrap(_per_block_set(rng, kind, xi, bool(k))) for xi, k in zip(xs, inside)]
    joined = join(ops, dims)
    assert join_key(joined) == join_key(ops[0])
    for gamma in (1.0, float(rng.uniform(0.05, 20.0))):
        want = np.concatenate([op.resolvent(gamma, xi) for op, xi in zip(ops, xs)])
        assert _rel(joined.resolvent(gamma, x), want, x) <= 1e-15
        r = rng.standard_normal(x.size)
        want = np.concatenate([shifted_inverse_resolvent(op, ri, gamma, xi)
                               for op, ri, xi in zip(ops, np.split(r, cuts), xs)])
        assert _rel(shifted_inverse_resolvent(joined, r, gamma, x), want, x, gamma * r) <= 1e-15
    # a point held inside stays bitwise where it is
    if kind == "halfspace":
        got = np.split(joined.resolvent(1.0, x), cuts)
        assert all(np.array_equal(g, xi) for g, xi, k in zip(got, xs, inside) if k)


def test_set_parameters_must_be_finite():
    inf, nan = float("inf"), float("nan")
    for make in (lambda: Hyperplane([inf, 1.0], 0.0), lambda: Hyperplane([1.0, 1.0], nan),
                 lambda: Hyperplane([1.0, 1.0], inf), lambda: Halfspace([1.0, nan], 0.0),
                 lambda: Ball([inf, 0.0], 1.0),
                 lambda: Ball([0.0], nan), lambda: Point([nan, 0.0]),
                 lambda: QuadraticDistance([inf])):
        with pytest.raises(ParameterError):
            make()
    # so is a normal whose squared norm overflows
    for dims in (None, (1, 1)):
        with pytest.raises(ParameterError):
            Halfspace([1e200, 1.0], 0.0 if dims is None else [0.0, 0.0], dims=dims)
    # a ball of infinite radius is the whole space
    x = np.array([1e3, -2.0])
    assert np.array_equal(Ball([0.0, 0.0], inf).project(x), x)
    assert Ball([1.0, 0.0], inf).support(np.array([0.0, 0.0])) == 0.0
    assert Ball([1.0, 0.0], inf).support(np.array([0.0, 1e-9])) == inf


def test_segmented_sets_check_their_segments():
    for make in (lambda: Hyperplane([1.0, 1.0, 1.0], [0.0, 1.0], dims=(2, 2)),
                 lambda: Hyperplane([1.0, 1.0, 1.0], [0.0], dims=(2, 1)),
                 lambda: Hyperplane([1.0, 0.0, 1.0], [0.0, 1.0, 2.0], dims=(1, 1, 1))):
        with pytest.raises(ParameterError):
            make()
    # support functions add up over the segments
    hp = Hyperplane([1.0, 0.0, 2.0], [3.0, 1.0], dims=(2, 1))
    assert hp.support(np.array([2.0, 0.0, -4.0])) == pytest.approx(4.0)
    assert hp.support(np.array([2.0, 1.0, -4.0])) == np.inf
    hs = Halfspace([1.0, 0.0, 2.0], [3.0, 1.0], dims=(2, 1))
    assert hs.support(np.array([2.0, 0.0, 4.0])) == pytest.approx(8.0)
    assert hs.support(np.array([2.0, 0.0, -4.0])) == np.inf
    # a vector that does not fit its block joins nothing; joined sets join again
    one = NormalCone(Hyperplane([1.0, 2.0], 1.0))
    assert join([one, one], [2, 1]) is None
    pair, x = join([one, one], [2, 2]), np.arange(8.0)
    assert np.array_equal(join([pair, pair], [4, 4]).resolvent(1.0, x),
                          join([one] * 4, [2] * 4).resolvent(1.0, x))


class _ScaledL1(L1Norm):
    """A subclass may act otherwise than its base, so it joins nothing."""


def test_operators_that_do_not_join():
    u = np.ones(2)
    # hyperplanes and halfspaces join, as one segmented set of their class
    for op in (NormalCone(Hyperplane(u, 1.0)), NormalCone(Halfspace(u, 1.0)),
               IndicatorFunction(Halfspace(u, 1.0)).subdifferential()):
        assert join_key(op) is not None and join_key(join([op, op], [2, 2])) == join_key(op)
    for op in (NormalCone(Ball(u, 1.0)), NormalCone(Point(u)),
               IndicatorFunction(Ball(u, 1.0)).subdifferential(),
               AffineOperator(np.eye(2)), AffineMap(np.eye(2)),
               LipschitzOperator(lambda x: x, 1.0), ZeroMap(),
               _ScaledL1(1.0).subdifferential()):
        assert join_key(op) is None and join([op, op], [2, 2]) is None
    # mixed kinds, even where they would act alike
    for a, b in ((ZeroOperator(), ScaledIdentity(0.0)),
                 (L1Norm(1.0).subdifferential(), SquaredNorm(1.0).subdifferential()),
                 (NormalCone(Box([0.0], [1.0])),
                  IndicatorFunction(Box([0.0], [1.0])).subdifferential()),
                 (ScaledIdentity(1.0), ScaledIdentityMap(1.0)),
                 (NormalCone(Hyperplane([1.0], 0.0)), NormalCone(Halfspace([1.0], 0.0))),
                 (NormalCone(Halfspace([1.0], 0.0)),
                  IndicatorFunction(Halfspace([1.0], 0.0)).subdifferential())):
        assert join([a, b], [1, 1]) is None and join([b, a], [1, 1]) is None
    # a parameter that does not broadcast over its block
    sq = [QuadraticDistance([1.0, 2.0, 3.0]).subdifferential(),
          QuadraticDistance([1.0]).subdifferential()]
    assert join(sq, [2, 1]) is None and join(sq, [3, 1]) is not None
    assert join([], []) is None
    with pytest.raises(ValueError):
        join(sq, [3])


class _Box(Box):
    """A subclass of a set may act otherwise than its base."""


def test_what_wraps_a_subclass_joins_nothing():
    for op in (NormalCone(_Box([0.0], [1.0])),
               IndicatorFunction(_Box([0.0], [1.0])).subdifferential()):
        assert join_key(op) is None and join([op, op], [1, 1]) is None
    # nor do sets and functions, outside an operator
    for obj in (Box([0.0], [1.0]), L1Norm(1.0), IndicatorFunction(Box([0.0], [1.0]))):
        assert join_key(obj) is None


def test_non_finite_constants_are_rejected():
    inf, nan = float("inf"), float("nan")
    for bad in (inf, -inf, nan):
        for make in (ScaledIdentity, ScaledIdentityMap, L1Norm, SquaredNorm):
            for arg in (bad, [1.0, bad]):
                with pytest.raises(ParameterError, match="finite"):
                    make(arg)
        with pytest.raises(ParameterError, match="finite"):
            LipschitzOperator(np.abs, bad)
        for make in (AffineOperator, AffineMap):
            with pytest.raises(ParameterError, match="M must be finite"):
                make([[1.0, 0.0], [0.0, bad]])
            with pytest.raises(ParameterError, match="b must be finite"):
                make(np.eye(2), [0.0, bad])
        with pytest.raises(ParameterError, match="finite b"):
            ScaledIdentityMap(1.0, [0.0, bad])


def test_catalog_resolvents_depend_on_step_and_point_alone():
    # a resolvent is a function of (gamma, x): no call before it, at another
    # step or at the same one, may change its bits
    from pdsplit.selftest import _catalog_resolvents

    rng = np.random.default_rng(8)
    for op in _catalog_resolvents(rng, 4):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        first = op.resolvent(0.3, x)
        op.resolvent(1.7, y)
        for _ in range(2):
            assert np.array_equal(op.resolvent(0.3, x), first), type(op).__name__

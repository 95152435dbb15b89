import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import (
    AffineOperator,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    IndicatorFunction,
    L1Norm,
    NormalCone,
    ParameterError,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    ScaledIdentityMap,
    SquaredNorm,
    ZeroFunction,
    ZeroOperator,
    conjugate_prox,
    graph_distance,
    prox,
    resolvent,
    shifted_inverse_resolvent,
    yosida,
)
from oracles import resolvent_bisection


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


def test_constructors_reject_nan():
    nan = float("nan")
    for make in (lambda: ScaledIdentity(nan), lambda: ScaledIdentityMap(nan),
                 lambda: L1Norm(nan), lambda: Ball([0.0], nan),
                 lambda: Box([nan], [1.0]), lambda: Box([0.0], [nan])):
        with pytest.raises(ParameterError):
            make()
    # infinite bounds still give orthants and the whole line
    assert Box([-np.inf], [np.inf]).project(np.array([3.0]))[0] == 3.0

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import (
    BlockLinearOp,
    BlockVector,
    ParameterError,
    SignatureError,
    SpaceSig,
    apply_adjoint,
    apply_block,
    lambda_conservative,
    lambda_power_iteration,
)
from pdsplit.blocks import EXACT_NORM_MAX_DIM, SMALL_BLOCK_DIM, check_signature, entry_norm_sq
from oracles import dense_coupling


def test_space_sig_validation():
    sig = SpaceSig((1, 2), (3,))
    assert sig.m == 2 and sig.K == 1
    with pytest.raises(ValueError):
        SpaceSig((), (1,))
    with pytest.raises(ValueError):
        SpaceSig((1, 0), (1,))


def test_block_vector_round_trip():
    v = BlockVector([[1.0, 2.0], [3.0]])
    assert v.dims == (2, 1)
    np.testing.assert_array_equal(v.flat(), [1.0, 2.0, 3.0])


def test_apply_block_identity():
    sig = SpaceSig((2,), (2,))
    L = BlockLinearOp([[1.0]], sig)
    out = apply_block(L, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(out, [1.0, 2.0])


def test_apply_block_difference_row():
    # one dual block coupling two scalars with [Id, -Id]
    sig = SpaceSig((1, 1), (1,))
    L = BlockLinearOp([[1.0, -1.0]], sig)
    out = apply_block(L, np.array([3.0, 1.0]))
    np.testing.assert_array_equal(out, [2.0])
    back = BlockVector.wrap(apply_adjoint(L, np.array([5.0])), sig.dims_primal)
    np.testing.assert_array_equal(back[0], [5.0])
    np.testing.assert_array_equal(back[1], [-5.0])


def test_apply_block_matches_dense_flatten():
    rng = np.random.default_rng(7)
    sig = SpaceSig((2, 2), (2, 2))
    entries = [[rng.standard_normal((2, 2)) for _ in range(2)] for _ in range(2)]
    L = BlockLinearOp(entries, sig)
    dense = np.block(entries)
    x = BlockVector([rng.standard_normal(2), rng.standard_normal(2)])
    np.testing.assert_allclose(apply_block(L, x.flat()), dense @ x.flat(),
                               atol=1e-12)
    v = BlockVector([rng.standard_normal(2), rng.standard_normal(2)])
    np.testing.assert_allclose(apply_adjoint(L, v.flat()), dense.T @ v.flat(),
                               atol=1e-12)


def test_shape_mismatch_raises():
    sig = SpaceSig((2,), (2,))
    with pytest.raises(SignatureError):
        BlockLinearOp([[np.ones((3, 2))]], sig)
    L = BlockLinearOp([[1.0]], sig)
    with pytest.raises(SignatureError):
        apply_block(L, np.array([1.0, 2.0, 3.0]))


def test_misfit_entries_name_their_block():
    sig = SpaceSig((2,), (3,))
    for entry in (np.ones((2, 2)), 1.0):
        with pytest.raises(SignatureError, match="entry \\(0,0\\) .* but its block is 3 x 2"):
            BlockLinearOp([[entry]], sig)


def test_numpy_scalar_entries_are_multiples_of_the_identity():
    sig = SpaceSig((2,), (2,))
    for scalar in (np.int64(1), np.float32(1), np.array(1.0), 1):
        L = BlockLinearOp([[scalar]], sig)
        assert L.entries == [[1.0]] and type(L.entries[0][0]) is float
        assert L.lambda_bound == 1.0
        np.testing.assert_array_equal(apply_block(L, np.array([2.0, 3.0])), [2.0, 3.0])
    for flag in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="bool"):
            BlockLinearOp([[flag]], sig)


def test_lambda_bound_must_be_a_nonnegative_number():
    sig = SpaceSig((1,), (1,))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda_bound"):
            BlockLinearOp([[1.0]], sig, lambda_bound=bad)


def test_non_finite_entries_are_rejected():
    sig = SpaceSig((2,), (2,))
    for bad in (float("inf"), float("-inf"), float("nan")):
        for entry in (bad, [[1.0, 0.0], [bad, 1.0]]):
            with pytest.raises(SignatureError, match=r"entry \(0,0\) is not finite"):
                BlockLinearOp([[entry]], sig)


def _cells(entries):
    return {(k, i): e for k, row in enumerate(entries)
            for i, e in enumerate(row) if e is not None}


def _same_entries(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b)
        and isinstance(a, float) == isinstance(b, float))


def test_mapping_and_list_build_the_same_operator():
    rng = np.random.default_rng(17)
    for _ in range(100):
        entries, sig = _random_mixed_grid(rng)
        from_list = BlockLinearOp(entries, sig)
        # the mapping's order does not matter: cells are stored row-major
        from_map = BlockLinearOp(dict(reversed(_cells(entries).items())), sig)
        assert ([(k, i) for k, i, _ in from_map.nonzeros]
                == [(k, i) for k, i, _ in from_list.nonzeros]
                == sorted(_cells(entries)))
        assert all(_same_entries(a, b) for (_, _, a), (_, _, b)
                   in zip(from_map.nonzeros, from_list.nonzeros))
        assert from_map.lambda_bound.hex() == from_list.lambda_bound.hex()
        for view in (from_map.entries, from_list.entries):
            assert len(view) == sig.K and all(len(row) == sig.m for row in view)
            assert all(_same_entries(a, b) for row, want in zip(view, entries)
                       for a, b in zip(row, want))


def test_mapping_keys_outside_the_grid_raise_and_none_values_are_zero():
    sig = SpaceSig((1, 2), (2,))
    for key in ((1, 0), (0, 2), (-1, 0)):
        with pytest.raises(SignatureError, match="outside"):
            BlockLinearOp({key: 1.0}, sig)
    L = BlockLinearOp({(0, 0): None, (0, 1): 2}, sig)
    assert L.nonzeros == [(0, 1, 2.0)]
    assert L.entries == [[None, 2.0]]
    assert L.lambda_bound == 4.0
    with pytest.raises(SignatureError):
        BlockLinearOp({(0, 0): 1.0}, sig)   # a scalar needs square blocks


def test_a_long_chain_builds_from_its_cells_in_linear_time():
    # as a K x m list this chain would have 4 * 10^8 cells
    m = 20000
    sig = SpaceSig((1,) * m, (1,) * (m - 1))
    start = time.process_time()
    cells = {(k, k): 1.0 for k in range(m - 1)}
    cells.update({(k, k + 1): -1.0 for k in range(m - 1)})
    L = BlockLinearOp(cells, sig)
    assert time.process_time() - start < 1.0
    assert len(L.nonzeros) == 2 * (m - 1)
    assert L.lambda_bound <= 4.0 * (1 + 1e-9)
    np.testing.assert_array_equal(apply_block(L, np.arange(m, dtype=float)), -np.ones(m - 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_adjoint_identity_random(seed):
    rng = np.random.default_rng(seed)
    dp = tuple(int(rng.integers(1, 4)) for _ in range(2))
    dd = tuple(int(rng.integers(1, 4)) for _ in range(2))
    sig = SpaceSig(dp, dd)
    L = BlockLinearOp(
        [[rng.standard_normal((dd[k], dp[i])) for i in range(2)] for k in range(2)],
        sig,
    )
    x = BlockVector([rng.standard_normal(d) for d in dp])
    v = BlockVector([rng.standard_normal(d) for d in dd])
    lhs = float(apply_block(L, x.flat()) @ v.flat())
    rhs = float(x.flat() @ apply_adjoint(L, v.flat()))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(x.flat()) * np.linalg.norm(v.flat()))


def test_lambda_conservative_scalar_cases():
    sig1 = SpaceSig((1,), (1,))
    assert lambda_conservative(BlockLinearOp([[2.0]], sig1)) == 4.0
    sig2 = SpaceSig((1, 1), (1,))
    assert lambda_conservative(BlockLinearOp([[1.0, -1.0]], sig2)) == 2.0


def test_lambda_conservative_matches_eigen_oracle(rng):
    sig = SpaceSig((2, 2), (2,))
    entries = [[rng.standard_normal((2, 2)) for _ in range(2)]]
    L = BlockLinearOp(entries, sig)
    want = sum(np.linalg.eigvalsh(e.T @ e).max() for e in entries[0])
    assert lambda_conservative(L) == pytest.approx(want, rel=1e-10)


def test_lambda_power_scalar_capped_at_conservative():
    # 3*Id: power estimate 9*1.01 is clipped to the conservative value 9
    sig = SpaceSig((1,), (1,))
    assert lambda_power_iteration(BlockLinearOp([[3.0]], sig)) == 9.0
    # [Id, -Id]: the sup and the entrywise sum coincide at 2
    sig2 = SpaceSig((1, 1), (1,))
    assert lambda_power_iteration(BlockLinearOp([[1.0, -1.0]], sig2)) == 2.0


def test_lambda_power_returns_the_cap_when_it_does_not_settle():
    # a near tie of the top two singular values keeps the estimate moving
    # past the step budget
    sig = SpaceSig((3, 3), (3,))
    G = _near_degenerate(np.random.default_rng(5), 3, 6, gap=1e-4)
    L = BlockLinearOp([[G[:, :3], G[:, 3:]]], sig)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lambda_power_iteration(L) == lambda_conservative(L)


def test_lambda_power_brackets_exact_norm(rng):
    for _ in range(20):
        dp = tuple(int(rng.integers(1, 4)) for _ in range(2))
        dd = tuple(int(rng.integers(1, 4)) for _ in range(2))
        sig = SpaceSig(dp, dd)
        entries = [
            [rng.standard_normal((dd[k], dp[i])) for i in range(2)]
            for k in range(2)
        ]
        L = BlockLinearOp(entries, sig)
        dense = np.block(entries)
        exact = np.linalg.eigvalsh(dense.T @ dense).max()
        est = lambda_power_iteration(L)
        assert exact * (1 - 1e-8) <= est <= lambda_conservative(L) + 1e-12
        assert est <= 1.01 * exact * (1 + 1e-8)


def test_norm_bound_validity(rng):
    for _ in range(100):
        dp = tuple(int(rng.integers(1, 4)) for _ in range(2))
        dd = tuple(int(rng.integers(1, 4)) for _ in range(2))
        sig = SpaceSig(dp, dd)
        L = BlockLinearOp(
            [[rng.standard_normal((dd[k], dp[i])) for i in range(2)]
             for k in range(2)],
            sig,
        )
        x = BlockVector([rng.standard_normal(d) for d in dp])
        nrm = np.linalg.norm(apply_block(L, x.flat())) ** 2
        for lam in (L.lambda_bound, lambda_power_iteration(L)):
            assert nrm <= lam * np.linalg.norm(x.flat()) ** 2 * (1 + 1e-10)


def _near_degenerate(rng, rows, cols, gap=1e-7):
    """A matrix whose top two singular values differ by ``gap`` relative."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    r = min(rows, cols)
    s = np.sort(rng.uniform(0.1, 0.9, r))[::-1]
    s[0] = 1.0
    if r > 1:
        s[1] = 1.0 - gap
    return u[:, :r] * s @ v[:, :r].T * rng.uniform(0.5, 3.0)


def test_entry_norm_sq_is_an_upper_bound_on_near_degenerate_spectra():
    rng = np.random.default_rng(300)
    for _ in range(300):
        rows, cols = (int(d) for d in rng.integers(2, 7, 2))
        M = _near_degenerate(rng, rows, cols)
        exact = np.linalg.norm(M, 2) ** 2
        assert exact <= entry_norm_sq(M) <= exact * (1 + 1e-9)


def test_entry_norm_sq_large_dense_is_inflated_and_capped_by_frobenius():
    rng = np.random.default_rng(5)
    d = EXACT_NORM_MAX_DIM + 6
    M = _near_degenerate(rng, d + 3, d)
    exact = np.linalg.norm(M, 2) ** 2
    frobenius = float(np.sum(M * M))
    assert exact <= entry_norm_sq(M) <= min(1.01 * exact, frobenius) * (1 + 1e-9)
    # a run that does not settle, here near a tie of the top two singular
    # values, returns the Frobenius bound
    M_tie = _near_degenerate(np.random.default_rng(5), d + 3, d, gap=1e-4)
    assert entry_norm_sq(M_tie) == pytest.approx(float(np.sum(M_tie * M_tie)), rel=1e-9)
    # a wide entry is bounded the same way
    assert exact <= entry_norm_sq(M.T) <= 1.01 * exact * (1 + 1e-9)


def _random_mixed_grid(rng):
    """A grid of scalar, dense (some near-degenerate) and empty cells, with
    whole rows and columns left empty now and then."""
    m, K = (int(d) for d in rng.integers(1, 5, 2))
    dp = tuple(int(d) for d in rng.integers(1, 4, m))
    dd = tuple(int(d) for d in rng.integers(1, 4, K))
    empty_row = int(rng.integers(0, 2 * K))
    empty_col = int(rng.integers(0, 2 * m))
    entries = []
    for k in range(K):
        row = []
        for i in range(m):
            kind = int(rng.integers(0, 4))
            if k == empty_row or i == empty_col or kind == 0:
                row.append(None)
            elif kind == 1 and dd[k] == dp[i]:
                row.append(float(rng.uniform(-2.0, 2.0)))
            elif kind == 2:
                row.append(_near_degenerate(rng, dd[k], dp[i]))
            else:
                row.append(rng.standard_normal((dd[k], dp[i])))
        entries.append(row)
    return entries, SpaceSig(dp, dd)


def _exact_norm_sq(e):
    return e * e if isinstance(e, float) else np.linalg.norm(e, 2) ** 2


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_lambda_bound_brackets_exact_norm_on_mixed_grids(seed):
    rng = np.random.default_rng(seed)
    entries, sig = _random_mixed_grid(rng)
    L = BlockLinearOp(entries, sig)
    exact = np.linalg.norm(dense_coupling(L), 2) ** 2
    # at most the entrywise sum of the past default, up to the rounding
    # margin; every entry here is small enough for an exact SVD norm
    entry_sum = math.fsum(_exact_norm_sq(e) for _, _, e in L.nonzeros)
    assert exact <= L.lambda_bound <= entry_sum * (1 + 1e-9)


def test_lambda_bound_of_an_empty_grid_is_zero():
    sig = SpaceSig((2, 1), (1, 3))
    L = BlockLinearOp([[None, None], [np.zeros((3, 2)), None]], sig)
    assert L.lambda_bound == 0.0


def test_lambda_bound_is_tight_on_the_difference_chain():
    # N is |D| for the chain x_i - x_{i+1}: ||N||^2 = ||D||^2 < 4, while the
    # entrywise sum is 2 (m - 1) = 126
    m = 64
    sig = SpaceSig((1,) * m, (1,) * (m - 1))
    entries = [[1.0 if i == k else -1.0 if i == k + 1 else None for i in range(m)]
               for k in range(m - 1)]
    L = BlockLinearOp(entries, sig)
    exact = np.linalg.norm(np.eye(m - 1, m) - np.eye(m - 1, m, k=1), 2) ** 2
    assert exact <= L.lambda_bound <= 4.0 * (1 + 1e-9)


def test_lambda_bound_on_scalar_rows_covers_rounding():
    # one row of scalars: N has rank one and the entrywise sum is ||N||^2
    # itself, so the bound must cover the rounding of the squares
    rng = np.random.default_rng(21)
    for _ in range(200):
        m, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        sig = SpaceSig((d,) * m, (d,))
        L = BlockLinearOp([[float(s) for s in rng.uniform(-2.0, 2.0, m)]], sig)
        assert np.linalg.norm(dense_coupling(L), 2) ** 2 <= L.lambda_bound
    # squares and sums that need no rounding are taken as they are
    L = BlockLinearOp([[0.5, -1.5, 3.0]], SpaceSig((2, 2, 2), (2,)))
    assert L.lambda_bound == 0.25 + 2.25 + 9.0


def _coupling_grid(rng):
    """A grid for the two ways cells are applied: scalar cells on small and
    on large blocks, dense cells, empty cells, rows and columns, or else
    every cell dense."""
    m, K = (int(d) for d in rng.integers(1, 5, 2))
    sizes = (1, 2, 3, SMALL_BLOCK_DIM, SMALL_BLOCK_DIM + 1)
    dp = tuple(int(rng.choice(sizes)) for _ in range(m))
    # most dual blocks copy a primal size, so scalar cells can sit there
    dd = tuple(int(dp[rng.integers(m)] if rng.random() < 0.8 else rng.choice(sizes))
               for _ in range(K))
    all_dense = rng.random() < 0.2
    empty_row, empty_col = int(rng.integers(0, 2 * K)), int(rng.integers(0, 2 * m))
    entries = []
    for k in range(K):
        row = []
        for i in range(m):
            kind = 2 if all_dense else int(rng.integers(0, 3))
            if not all_dense and (k == empty_row or i == empty_col or kind == 0):
                row.append(None)
            elif kind == 1 and dd[k] == dp[i]:
                row.append(float(rng.uniform(-2.0, 2.0)))
            else:
                row.append(rng.standard_normal((dd[k], dp[i])))
        entries.append(row)
    return entries, SpaceSig(dp, dd)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_coupling_matches_the_dense_grid(seed):
    rng = np.random.default_rng(seed)
    entries, sig = _coupling_grid(rng)
    L = BlockLinearOp(entries, sig)
    # the small scalar cells are gathered, every other cell is applied alone
    small = {(k, i) for k, i, e in L.nonzeros
             if isinstance(e, float) and sig.dims_primal[i] <= SMALL_BLOCK_DIM}
    assert {(k, i) for k, i, _ in L.per_cell} == {(k, i) for k, i, _ in L.nonzeros} - small
    assert (L.gather is None) == (not small)
    D = dense_coupling(L)
    x = BlockVector([rng.standard_normal(d) for d in sig.dims_primal])
    v = BlockVector([rng.standard_normal(d) for d in sig.dims_dual])
    Lx, Ltv = apply_block(L, x.flat()), apply_adjoint(L, v.flat())
    assert Lx.dtype == Ltv.dtype == np.float64
    for got, M, u in ((Lx, D, x.flat()), (Ltv, D.T, v.flat())):
        scale = np.linalg.norm(np.abs(M) @ np.abs(u))
        assert np.linalg.norm(got - M @ u) <= 1e-13 * scale
    lhs, rhs = float(Lx @ v.flat()), float(x.flat() @ Ltv)
    assert abs(lhs - rhs) <= 1e-13 * float(np.abs(v.flat()) @ np.abs(D) @ np.abs(x.flat()))


def test_gathered_cells_add_in_cell_order():
    # each dual coordinate sums its terms cell after cell, as the
    # cell-by-cell loop did, so the products are exactly the same
    sig = SpaceSig((2, 2, 2), (2,))
    L = BlockLinearOp([[0.1, 0.2, 0.3]], sig)
    x = BlockVector([[0.7, 1e16], [0.1, -1e16], [0.3, 1.0]])
    want = np.zeros(2)
    for s, xi in zip((0.1, 0.2, 0.3), x.blocks):
        want += s * xi
    np.testing.assert_array_equal(apply_block(L, x.flat()), want)
    rows, cols, w = L.gather
    np.testing.assert_array_equal(rows, [0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(cols, [0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(w, [0.1, 0.1, 0.2, 0.2, 0.3, 0.3])


def test_a_grid_without_small_scalar_cells_applies_in_float64():
    # np.bincount over no terms returns int64 zeros: such grids must not use it
    big = SMALL_BLOCK_DIM + 1
    for entries, sig in (([[None]], SpaceSig((1,), (1,))),
                         ([[2.0]], SpaceSig((big,), (big,))),
                         ([[np.ones((1, 2))]], SpaceSig((2,), (1,)))):
        L = BlockLinearOp(entries, sig)
        assert L.gather is None
        assert apply_block(L, np.ones(sum(sig.dims_primal))).dtype == np.float64
        assert apply_adjoint(L, np.ones(sum(sig.dims_dual))).dtype == np.float64


def test_the_coupling_takes_and_returns_flat_arrays_only():
    sig = SpaceSig((1, 2), (2,))
    L = BlockLinearOp([[None, 2.0]], sig)
    for fn, n in ((apply_block, 3), (apply_adjoint, 2)):
        bad = (BlockVector.zeros((n,)), np.zeros((n, 1)), np.zeros((1, n)), np.zeros(n + 1),
               np.zeros(n - 1), [0.0] * n)
        for arg in bad:
            with pytest.raises(SignatureError, match=f"length {n}, got") as err:
                fn(L, arg)
            assert "\n" not in str(err.value)
        a = np.arange(n, dtype=float)
        out = fn(L, a)
        assert out.dtype == np.float64 and out.ndim == 1
        assert not np.shares_memory(out, a)
        keep = a.copy()
        out += 1.0
        np.testing.assert_array_equal(a, keep)
    np.testing.assert_array_equal(apply_block(L, np.array([5.0, 1.0, 2.0])), [2.0, 4.0])
    np.testing.assert_array_equal(apply_adjoint(L, np.array([1.0, 2.0])), [0.0, 2.0, 4.0])


def test_an_overflowing_norm_bound_names_the_largest_cell():
    sig, row = SpaceSig((1, 2), (1, 2)), SpaceSig((1, 1), (1,))
    for sg, cells, cell in ((sig, {(0, 0): 1.0, (1, 1): 1e200}, (1, 1)),
                            (sig, {(0, 0): 1e154, (1, 1): np.full((2, 2), 1e154)}, (1, 1)),
                            (sig, {(0, 0): 1e200, (1, 1): np.full((2, 2), 1e200)}, (0, 0)),
                            (row, {(0, 0): 1.3e154, (0, 1): 1.3e154}, (0, 0))):  # a sum
        with pytest.raises(ParameterError, match=r"entry \(%d,%d\) is too large" % cell) as info:
            BlockLinearOp(cells, sg)
        assert info.value.key == cell
    # squares that add up past the float range leave a finite bound alone
    L = BlockLinearOp({(0, 0): 1.3e154, (1, 1): 1.3e154}, sig)
    assert 1.3e154 ** 2 <= L.lambda_bound < math.inf
    # a bound the caller gives is not recomputed
    assert BlockLinearOp({(0, 0): 1e200}, sig, lambda_bound=1.0).lambda_bound == 1.0


@pytest.mark.parametrize("make, error, message", [
    (lambda: check_signature(BlockVector.zeros((1,)), (2,), "primal"), SignatureError,
     "primal vector has blocks (1,), expected (2,)"),
    (lambda: BlockLinearOp({(0, 0): np.ones(2)}, SpaceSig((2,), (1,))), ValueError,
     "dense entries must be 2-D matrices"),
    (lambda: BlockLinearOp([[1.0, 1.0], [1.0]], SpaceSig((1, 1), (1, 1))), SignatureError,
     "entry grid must be 2 x 2, got 2 x {1, 2}"),
], ids=["signature", "1-D-entry", "ragged-grid"])
def test_malformed_vectors_and_grids_are_rejected(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message

"""Shared builders for random desk-scale problem instances."""

import numpy as np
import pytest
from hypothesis import settings

from pdsplit import (
    AffineOperator,
    BlockLinearOp,
    BlockVector,
    Box,
    CoupledInclusionProblem,
    NormalCone,
    ParallelSumProblem,
    ScaledIdentity,
    ScaledIdentityMap,
    SpaceSig,
    ZeroMap,
    ZeroOperator,
)

# Every run draws the same hypothesis examples, so two runs at one commit
# solve the same problems; each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_monotone(rng, d):
    kind = rng.integers(0, 4)
    if kind == 0:
        return ZeroOperator()
    if kind == 1:
        return ScaledIdentity(float(rng.uniform(0.1, 2.0)))
    if kind == 2:
        lo = rng.uniform(-2.0, 0.0, d)
        return NormalCone(Box(lo, lo + rng.uniform(0.5, 2.0, d)))
    M = rng.standard_normal((d, d))
    return AffineOperator(M @ M.T / d + 0.1 * np.eye(d), rng.standard_normal(d))


def random_lipschitz(rng, d):
    if rng.integers(0, 2):
        return ScaledIdentityMap(float(rng.uniform(0.0, 0.5)))
    return ZeroMap()


def random_coupled_problem(rng, max_blocks=3, max_dim=4):
    m = int(rng.integers(1, max_blocks + 1))
    K = int(rng.integers(1, max_blocks + 1))
    dp = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(m))
    dd = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(K))
    sig = SpaceSig(dp, dd)
    entries = [
        [rng.standard_normal((dd[k], dp[i])) for i in range(m)] for k in range(K)
    ]
    return CoupledInclusionProblem(
        sig,
        [random_monotone(rng, d) for d in dp],
        [random_lipschitz(rng, d) for d in dp],
        [random_monotone(rng, d) for d in dd],
        [random_lipschitz(rng, d) for d in dd],
        BlockLinearOp(entries, sig),
        BlockVector([rng.standard_normal(d) for d in dp]),
        BlockVector([rng.standard_normal(d) for d in dd]),
    )


def wide_coupled_problem(rng, dims_primal=(40,) * 4, dims_dual=(40,) * 4):
    """A random coupled system on blocks of the given dimensions, with a
    dense entry in about half of the cells: a product space large enough
    for the engine's Anderson acceleration."""
    sig = SpaceSig(dims_primal, dims_dual)
    entries = [[rng.standard_normal((dk, di)) / np.sqrt(di) if rng.integers(0, 2) else None
                for di in dims_primal] for dk in dims_dual]
    return CoupledInclusionProblem(
        sig,
        [random_monotone(rng, d) for d in dims_primal],
        [random_lipschitz(rng, d) for d in dims_primal],
        [random_monotone(rng, d) for d in dims_dual],
        [random_lipschitz(rng, d) for d in dims_dual],
        BlockLinearOp(entries, sig),
        BlockVector([rng.standard_normal(d) for d in dims_primal]),
        BlockVector([rng.standard_normal(d) for d in dims_dual]),
    )


def random_parallel_sum(rng, max_dim=3, max_K=3):
    dim = int(rng.integers(1, max_dim + 1))
    K = int(rng.integers(1, max_K + 1))
    K2 = int(rng.integers(0, K + 1))
    K1 = int(rng.integers(0, K2 + 1))
    dual_dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(K))
    S = []
    for k in range(K):
        if k < K1:
            S.append(random_monotone(rng, dual_dims[k]))
        elif k < K2:
            S.append(ScaledIdentityMap(float(rng.uniform(0.1, 1.0))))
        else:
            S.append(random_lipschitz(rng, dual_dims[k]))
    L = []
    for k in range(K):
        if dual_dims[k] == dim and rng.integers(0, 2):
            L.append(float(rng.uniform(-1.5, 1.5)))
        else:
            L.append(rng.standard_normal((dual_dims[k], dim)))
    return ParallelSumProblem(
        dim=dim,
        dual_dims=dual_dims,
        K1=K1,
        K2=K2,
        A=random_monotone(rng, dim),
        C=random_lipschitz(rng, dim),
        z=rng.standard_normal(dim),
        r=[rng.standard_normal(d) for d in dual_dims],
        B=[random_monotone(rng, d) for d in dual_dims],
        S=S,
        L=L,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

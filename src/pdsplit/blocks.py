"""Block vector spaces and block-structured linear operators.

Vectors live in a finite product of real Euclidean spaces.  A coupling
operator is a K x m grid of entries, each mapping primal block i to dual
block k.  Entries may be dense matrices or lightweight zero/identity/scalar
tags so that mostly-structural grids (lots of -Id and 0) stay cheap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceSig",
    "BlockVector",
    "BlockLinearOp",
    "SignatureError",
    "apply_block",
    "apply_adjoint",
    "lambda_conservative",
    "lambda_power_iteration",
    "POWER_SAFETY_FACTOR",
]

# Inflation applied to power-iteration norm estimates: over-estimating the
# coupling norm keeps the step-size bound valid, under-estimating voids it.
POWER_SAFETY_FACTOR = 1.01


class SignatureError(ValueError):
    """Block count or block shapes do not match a space signature."""


@dataclass(frozen=True)
class SpaceSig:
    """Dimensions of the primal product space H_1 x...x H_m and the dual
    product space G_1 x...x G_K."""

    dims_primal: tuple
    dims_dual: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims_primal", tuple(int(d) for d in self.dims_primal))
        object.__setattr__(self, "dims_dual", tuple(int(d) for d in self.dims_dual))
        if len(self.dims_primal) < 1 or len(self.dims_dual) < 1:
            raise ValueError("need at least one primal and one dual block")
        if any(d < 1 for d in self.dims_primal + self.dims_dual):
            raise ValueError("all block dimensions must be >= 1")

    @property
    def m(self):
        return len(self.dims_primal)

    @property
    def K(self):
        return len(self.dims_dual)


def block_slices(dims):
    """Slices of a flat product-space array, one per block of ``dims``."""
    out, pos = [], 0
    for d in dims:
        out.append(slice(pos, pos + d))
        pos += d
    return out


class BlockVector:
    """Element of a product space: one contiguous float64 array seen as a
    sequence of 1-D blocks.

    ``BlockVector(blocks)`` keeps the given blocks and joins them into the
    flat array only when an operation first needs it; ``wrap`` goes the
    other way and splits a flat array into block views on demand.  Vectors
    are values: operations return new vectors and never write into their
    operands, so blocks and flat array may share memory with each other and
    with the caller's arrays.
    """

    __slots__ = ("dims", "_blocks", "_flat")

    def __init__(self, blocks):
        self._blocks = [np.asarray(b, dtype=float).reshape(-1) for b in blocks]
        self.dims = tuple(b.size for b in self._blocks)
        self._flat = None

    @classmethod
    def wrap(cls, flat, dims):
        """View a 1-D float array as blocks of ``dims`` (a tuple of ints),
        without copying."""
        vec = object.__new__(cls)
        vec.dims = dims
        vec._blocks = None
        vec._flat = flat
        return vec

    @classmethod
    def zeros(cls, dims):
        dims = tuple(int(d) for d in dims)
        return cls.wrap(np.zeros(sum(dims)), dims)

    @classmethod
    def from_flat(cls, flat, dims):
        flat = np.array(flat, dtype=float).reshape(-1)
        dims = tuple(int(d) for d in dims)
        if flat.size != sum(dims):
            raise SignatureError(
                f"flat vector of size {flat.size} cannot be split into blocks {dims}"
            )
        return cls.wrap(flat, dims)

    @property
    def blocks(self):
        if self._blocks is None:
            self._blocks = [self._flat[s] for s in block_slices(self.dims)]
        return self._blocks

    def flat(self):
        if self._flat is None:
            self._flat = np.concatenate(self._blocks)
        return self._flat

    def split(self, m):
        """The first m blocks and the rest, as two vectors sharing memory."""
        f = self.flat()
        cut = sum(self.dims[:m])
        return (BlockVector.wrap(f[:cut], self.dims[:m]),
                BlockVector.wrap(f[cut:], self.dims[m:]))

    def copy(self):
        return BlockVector.wrap(self.flat().copy(), self.dims)

    def norm(self):
        f = self.flat()
        return math.sqrt(float(f @ f))

    def dot(self, other):
        return float(self.flat() @ other.flat())

    def is_finite(self):
        return bool(np.isfinite(self.flat()).all())

    def _same_space(self, other):
        if other.dims != self.dims:
            raise SignatureError(f"blocks {other.dims} do not match {self.dims}")

    def __add__(self, other):
        self._same_space(other)
        return BlockVector.wrap(self.flat() + other.flat(), self.dims)

    def __sub__(self, other):
        self._same_space(other)
        return BlockVector.wrap(self.flat() - other.flat(), self.dims)

    def __rmul__(self, scalar):
        return BlockVector.wrap(scalar * self.flat(), self.dims)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, i):
        return self.blocks[i]

    def __repr__(self):
        return f"BlockVector({[b.tolist() for b in self.blocks]})"


def check_signature(vec, dims, side):
    if tuple(vec.dims) != tuple(dims):
        raise SignatureError(f"{side} vector has blocks {vec.dims}, expected {tuple(dims)}")


# ---------------------------------------------------------------------------
# Grid entries.  An entry is one of:
#   None           zero map
#   float s       s * Id (square blocks only)
#   2-D ndarray    dense matrix, shape (dim_out, dim_in)


def entry_apply(entry, x):
    if entry is None:
        return None
    if isinstance(entry, float):
        return entry * x
    return entry @ x


def entry_apply_adjoint(entry, v):
    if entry is None:
        return None
    if isinstance(entry, float):
        return entry * v
    return entry.T @ v


def entry_norm_sq(entry, dim_in, dim_out, tol=1e-12, max_iters=10000):
    """Squared spectral norm of a single grid entry.

    Dense entries use power iteration on the Gram matrix M^T M.
    """
    if entry is None:
        return 0.0
    if isinstance(entry, float):
        return entry * entry
    gram = entry.T @ entry
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dim_in)
    x /= np.linalg.norm(x)
    val = 0.0
    for _ in range(max_iters):
        y = gram @ x
        new_val = float(np.linalg.norm(y))
        if new_val == 0.0:
            return 0.0
        x = y / new_val
        if abs(new_val - val) <= tol * max(1.0, new_val):
            return new_val
        val = new_val
    return val


def normalize_entry(entry):
    if entry is None:
        return None
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return float(entry)
    arr = np.asarray(entry, dtype=float)
    if arr.ndim != 2:
        raise ValueError("dense entries must be 2-D matrices")
    return arr


class BlockLinearOp:
    """K x m grid of linear maps (entry (k, i) maps primal block i to dual
    block k) with adjoint application and a declared norm bound.

    ``lambda_bound`` is any valid upper bound on sup ||Lx||^2 / ||x||^2; by
    default the conservative sum-of-squared-entry-norms bound is used.
    """

    def __init__(self, entries, sig, lambda_bound=None):
        self.sig = sig
        if len(entries) != sig.K or any(len(row) != sig.m for row in entries):
            raise SignatureError(
                f"entry grid must be {sig.K} x {sig.m}, got "
                f"{len(entries)} x {set(len(r) for r in entries)}"
            )
        self.entries = [[normalize_entry(e) for e in row] for row in entries]
        self.nonzeros = [
            (k, i, e) for k, row in enumerate(self.entries)
            for i, e in enumerate(row) if e is not None
        ]
        for k, i, e in self.nonzeros:
            if isinstance(e, float):
                if sig.dims_dual[k] != sig.dims_primal[i]:
                    raise SignatureError(
                        f"scalar entry ({k},{i}) needs square blocks, got "
                        f"{sig.dims_dual[k]} x {sig.dims_primal[i]}"
                    )
            elif e.shape != (sig.dims_dual[k], sig.dims_primal[i]):
                raise SignatureError(
                    f"entry ({k},{i}) has shape {e.shape}, expected "
                    f"({sig.dims_dual[k]}, {sig.dims_primal[i]})"
                )
        # the nonzeros as slices of flat dual and primal arrays; row-major
        # order makes every output block sum its terms in index order
        rows, cols = block_slices(sig.dims_dual), block_slices(sig.dims_primal)
        self.cells = [(rows[k], cols[i], e) for k, i, e in self.nonzeros]
        if lambda_bound is None:
            lambda_bound = lambda_conservative(self)
        if lambda_bound < 0:
            raise ValueError("lambda_bound must be nonnegative")
        self.lambda_bound = float(lambda_bound)

    @classmethod
    def single(cls, matrix, dim_in, dim_out, lambda_bound=None):
        sig = SpaceSig((dim_in,), (dim_out,))
        return cls([[matrix]], sig, lambda_bound=lambda_bound)


def apply_block(L, x):
    """Apply the grid: dual block k is sum_i L_ki x_i."""
    check_signature(x, L.sig.dims_primal, "primal")
    xf = x.flat()
    out = np.zeros(sum(L.sig.dims_dual))
    for rows, cols, e in L.cells:
        out[rows] += entry_apply(e, xf[cols])
    return BlockVector.wrap(out, L.sig.dims_dual)


def apply_adjoint(L, v):
    """Apply the adjoint grid: primal block i is sum_k L_ki^T v_k."""
    check_signature(v, L.sig.dims_dual, "dual")
    vf = v.flat()
    out = np.zeros(sum(L.sig.dims_primal))
    for rows, cols, e in L.cells:
        out[cols] += entry_apply_adjoint(e, vf[rows])
    return BlockVector.wrap(out, L.sig.dims_primal)


def lambda_conservative(L):
    """Sum of squared spectral norms of all entries.

    Always a valid norm bound for the stacked operator (Cauchy-Schwarz), if
    generally a loose one.
    """
    return sum(
        entry_norm_sq(e, L.sig.dims_primal[i], L.sig.dims_dual[k])
        for k, i, e in L.nonzeros
    )


def lambda_power_iteration(L, iters=1000, tol=1e-12):
    """Estimate ||L||^2 by power iteration on L*L, inflated by a safety
    factor and capped at the conservative bound.

    Falls back to the conservative bound (with a warning) when the iteration
    does not settle within ``iters`` steps.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    conservative = lambda_conservative(L)
    if conservative == 0.0:
        return 0.0
    rng = np.random.default_rng(0)
    x = BlockVector([rng.standard_normal(d) for d in L.sig.dims_primal])
    nx = x.norm()
    x = (1.0 / nx) * x
    val = 0.0
    converged = False
    for _ in range(iters):
        y = apply_adjoint(L, apply_block(L, x))
        new_val = y.norm()
        if new_val == 0.0:
            return 0.0
        x = (1.0 / new_val) * y
        if abs(new_val - val) <= tol * max(1.0, new_val):
            val = new_val
            converged = True
            break
        val = new_val
    if not converged:
        warnings.warn(
            "power iteration on L*L did not converge; using conservative bound",
            RuntimeWarning,
        )
        return conservative
    return min(val * POWER_SAFETY_FACTOR, conservative)

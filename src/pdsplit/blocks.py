"""Block vector spaces and block-structured linear operators.

Vectors live in a finite product of real Euclidean spaces.  A coupling
operator maps primal block i to dual block k through its entry (k, i).
Entries may be dense matrices or lightweight zero/scalar tags, and only
the nonzero ones are stored, so a sparse coupling (a chain of +-Id, a
column plus a -Id diagonal) costs O(nnz) to build and to apply.  The
solver's monotone map needs the skew coupling (x, v) -> (L* v, -L x),
and one sweep over the flat array (x, v) forms it: the scalar cells on
blocks of at most SMALL_BLOCK_DIM coordinates as one gather/scatter over
their coordinates, then every other cell once for both of its products.
``apply_skew`` is that sweep; ``apply_block`` and ``apply_adjoint`` run
it with the other half zero and keep their half, so each costs a full
sweep.  This module is the only one that knows the K x m grid form of a
coupling and the form of its entries; other modules fit them to blocks
with ``entry_misfit``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SMALL_BLOCK_DIM",
    "SpaceSig",
    "BlockVector",
    "BlockLinearOp",
    "SignatureError",
    "apply_block",
    "apply_adjoint",
    "apply_skew",
    "lambda_conservative",
    "lambda_power_iteration",
    "POWER_SAFETY_FACTOR",
]

# Inflation applied to power-iteration norm estimates: over-estimating the
# coupling norm keeps the step-size bound valid, under-estimating voids it.
POWER_SAFETY_FACTOR = 1.01

# Relative inflation of bounds computed in floating point: exact SVD norms
# and the Collatz-Wielandt ratios of lambda_conservative, whose sums of
# nonnegative terms lose far less than this with up to ~10^3 nonzeros per
# grid row or column.
ROUNDING_MARGIN = 1e-12

# Dense entries with at most this many rows or columns get an exact SVD
# norm; beyond it a power estimate on the Gram matrix is cheaper.
EXACT_NORM_MAX_DIM = 64

# Blocks of at most this many coordinates are small: their scalar cells are
# applied as one gather/scatter, whose index and weight arrays hold one
# entry per coordinate, and operators.runs joins the separable operators and
# functions of runs of them.  Larger blocks keep one numpy call per cell or
# block, which costs them no index arrays.
SMALL_BLOCK_DIM = 64

# Most power steps taken by lambda_conservative, which stops earlier once
# its bound stops falling; each step costs two passes over the nonzeros.
CW_STEPS = 32

# What a coupling file or ParameterError says of the entry (k, i) with the
# largest norm when the bound on ||L||^2 overflows.
ENTRY_TOO_LARGE = "is too large: the bound on ||L||^2 overflows"
_TINY = np.finfo(float).tiny


class ParameterError(ValueError):
    """Invalid operator/step parameter (e.g. gamma <= 0).  key, when set,
    names what is at fault, so a front end can point at where that value
    came from: the solver setting (an FbfConfig or error-schedule argument)
    or the coupling cell (k, i)."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class SignatureError(ValueError):
    """Block count or block shapes do not match a space signature."""


@dataclass(frozen=True)
class SpaceSig:
    """Dimensions of the primal product space H_1 x...x H_m and the dual
    product space G_1 x...x G_K."""

    dims_primal: tuple
    dims_dual: tuple

    def __post_init__(self):
        primal, dual = tuple(self.dims_primal), tuple(self.dims_dual)
        if not (primal and dual):
            raise ValueError("need at least one primal and one dual block")
        if not all(map(is_size, primal + dual)):
            raise ValueError(f"all block dimensions must be integers >= 1, got {primal}, {dual}")
        object.__setattr__(self, "dims_primal", tuple(map(int, primal)))
        object.__setattr__(self, "dims_dual", tuple(map(int, dual)))

    @property
    def m(self):
        return len(self.dims_primal)

    @property
    def K(self):
        return len(self.dims_dual)


def is_size(n, least=1):
    """Whether n is an integer, equal to its int(), of at least ``least``."""
    try:
        return int(n) == n >= least
    except (TypeError, ValueError, OverflowError):
        return False


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
    flat array only when ``flat`` first needs it; ``wrap`` goes the other
    way and splits a flat array into block views on demand.  Blocks and
    flat array may share memory with each other and with the caller's
    arrays.  Arithmetic is done on the flat arrays.
    """

    __slots__ = ("dims", "_blocks", "_flat")

    def __init__(self, blocks):
        self._blocks = [np.asarray(b, dtype=float).reshape(-1) for b in blocks]
        self.dims = tuple(b.size for b in self._blocks)
        self._flat = None

    @classmethod
    def wrap(cls, flat, dims):
        """View a 1-D float array as blocks of ``dims`` (a tuple of ints),
        without copying; SignatureError unless it has sum(dims) entries."""
        check_flat(flat, sum(dims), "block")
        vec = object.__new__(cls)
        vec.dims = dims
        vec._blocks = None
        vec._flat = flat
        return vec

    @classmethod
    def zeros(cls, dims):
        dims = tuple(int(d) for d in dims)
        return cls.wrap(np.zeros(sum(dims)), dims)

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

    def __getitem__(self, i):
        return self.blocks[i]

    def __repr__(self):
        return f"BlockVector({[b.tolist() for b in self.blocks]})"


def check_signature(vec, dims, side):
    got = getattr(vec, "dims", None)
    if got is None:
        raise SignatureError(f"{side} vector must be a BlockVector with blocks {tuple(dims)}, "
                             f"got {type(vec).__name__}")
    if tuple(got) != tuple(dims):
        raise SignatureError(f"{side} vector has blocks {got}, expected {tuple(dims)}")


# ---------------------------------------------------------------------------
# Grid entries.  An entry is one of:
#   None           zero map
#   float s       s * Id (square blocks only)
#   2-D ndarray    dense matrix, shape (dim_out, dim_in)


def entry_apply(entry, x):
    if entry is None:
        return np.zeros(x.shape)
    if isinstance(entry, float):
        return entry * x
    return entry @ x


def entry_apply_adjoint(entry, v):
    if isinstance(entry, float):
        return entry * v
    return entry.T @ v


def entry_out_dim(entry, dim_in):
    """Rows of an entry acting on a block of size dim_in: a zero or scalar
    entry maps the block to a block of the same size."""
    return dim_in if np.ndim(entry) == 0 else np.shape(entry)[0]


def entry_norm_sq(entry):
    """Upper bound on the squared spectral norm of a single grid entry.

    Scalars are exact.  A dense entry with at most EXACT_NORM_MAX_DIM rows
    or columns gets its exact SVD norm squared times 1 + ROUNDING_MARGIN.  A
    larger one gets a power-iteration estimate on its smaller Gram matrix,
    inflated by POWER_SAFETY_FACTOR and capped by the squared Frobenius
    norm: the one case where the bound is inflated rather than certified.
    When the iteration does not settle within 10000 steps, as near a tie of
    the two largest singular values, it gets the exact bound after all.
    """
    if isinstance(entry, float):
        return entry * entry
    if min(entry.shape) > EXACT_NORM_MAX_DIM:
        rows, cols = entry.shape
        gram = entry.T @ entry if cols <= rows else entry @ entry.T   # the smaller one
        est = _power_norm_sq(gram.__matmul__, gram.shape[0], float(np.trace(gram)), 10000)
        if est is not None:
            return est
    norm = float(np.linalg.norm(entry, 2))            # norm ** 2 would raise on overflow
    return norm * norm * (1.0 + ROUNDING_MARGIN)


def _power_norm_sq(gram, n, cap, steps):
    """Power estimate of the top eigenvalue of the positive semidefinite
    map ``gram`` on R^n, settled to 1e-12 relative, inflated by
    POWER_SAFETY_FACTOR and capped by the certified bound ``cap``; None
    when the iteration does not settle within ``steps``."""
    x = np.random.default_rng(0).standard_normal(n)
    x /= np.linalg.norm(x)
    val = 0.0
    for _ in range(steps):
        y = gram(x)
        new_val = float(np.linalg.norm(y))
        if new_val == 0.0:
            return 0.0
        x = y / new_val
        if abs(new_val - val) <= 1e-12 * max(1.0, new_val):
            return min(new_val * POWER_SAFETY_FACTOR, cap)
        val = new_val
    return None


def normalize_entry(entry):
    """The stored entry, from None, any real number (s * Id) or a real
    matrix."""
    if entry is None:
        return None
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return float(entry)                             # the common case, kept cheap
    arr = np.asarray(entry)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"entries must be real numbers or matrices, not {arr.dtype}")
    if arr.ndim not in (0, 2):
        raise ValueError("dense entries must be 2-D matrices")
    return float(arr) if arr.ndim == 0 else arr.astype(float, copy=False)


def entry_misfit(entry, rows, cols):
    """Why ``entry`` does not fit a block of ``rows`` x ``cols`` (rows None:
    any row count) or is not finite, or None when it fits."""
    if entry is None:
        return None
    scalar = isinstance(entry, (int, float)) or np.ndim(entry) == 0
    if not (math.isfinite(entry) if scalar else np.isfinite(entry).all()):
        return "is not finite"
    shape = (cols, cols) if scalar else np.shape(entry)
    if shape == (rows or shape[0], cols):
        return None
    what = "a multiple of the identity" if scalar else " x ".join(map(str, shape))
    return f"is {what} but its block is {rows or 'n'} x {cols}"


class BlockLinearOp:
    """Linear map whose entry L_ki maps primal block i to dual block k,
    with a declared norm bound.

    ``entries`` is the K x m grid as nested lists or a mapping
    ``{(k, i): entry}`` (0-based; a key outside the grid raises
    SignatureError, a None value is a zero cell).  Only ``nonzeros``, the
    (k, i, entry) triples of the nonzero cells in row-major order, is kept,
    with their block indices as the arrays ``cell_rows`` and ``cell_cols``.
    From these the constructor derives the one layout that ``apply_skew``,
    ``apply_block`` and ``apply_adjoint`` all sweep, over the flat
    product-space array (x, v) of ``n_primal + n_dual`` coordinates:
    ``skew_gather`` holds the target, source and weight arrays of the
    scalar cells on small blocks, the adjoint half and then the forward
    half with negated weights (None when there are none), and
    ``skew_cells`` the (primal slice, dual slice, entry) of each other
    cell, the dual slice shifted past x.

    ``lambda_bound`` is any valid upper bound on sup ||Lx||^2 / ||x||^2; by
    default the certified grid-of-entry-norms bound ``lambda_conservative``
    is used, and where it overflows a ParameterError names the cell with
    the largest entry norm as its key.
    """

    def __init__(self, entries, sig, lambda_bound=None):
        self.sig = sig
        if not isinstance(entries, Mapping):
            if len(entries) != sig.K or any(len(row) != sig.m for row in entries):
                raise SignatureError(
                    f"entry grid must be {sig.K} x {sig.m}, got "
                    f"{len(entries)} x {set(len(r) for r in entries)}"
                )
            entries = {(k, i): e for k, row in enumerate(entries)
                       for i, e in enumerate(row) if e is not None}
        slices = block_slices(sig.dims_primal + sig.dims_dual)
        # row-major order makes every dual block sum its terms in index order
        self.nonzeros, self.skew_cells = [], []
        small, weights = [], []          # the scalar cells on small blocks
        for (k, i), e in sorted(entries.items(), key=lambda cell: cell[0]):
            if not (0 <= k < sig.K and 0 <= i < sig.m):
                raise SignatureError(
                    f"entry ({k},{i}) lies outside the {sig.K} x {sig.m} grid")
            try:
                e = normalize_entry(e)
            except ValueError as exc:
                raise SignatureError(f"entry ({k},{i}): {exc}") from None
            if e is None:
                continue
            misfit = entry_misfit(e, sig.dims_dual[k], sig.dims_primal[i])
            if misfit:
                raise SignatureError(f"entry ({k},{i}) {misfit}")
            if isinstance(e, float) and sig.dims_primal[i] <= SMALL_BLOCK_DIM:
                small.append(len(self.nonzeros))
                weights.append(e)
            else:
                self.skew_cells.append((slices[i], slices[sig.m + k], e))
            self.nonzeros.append((k, i, e))
        self.n_primal = slices[sig.m - 1].stop
        self.n_dual = slices[-1].stop - self.n_primal
        count = len(self.nonzeros)
        self.cell_rows = np.fromiter((k for k, _, _ in self.nonzeros), int, count)
        self.cell_cols = np.fromiter((i for _, i, _ in self.nonzeros), int, count)
        self.skew_gather = (_skew_layout(sig, self.cell_rows[small], self.cell_cols[small],
                                         weights) if small else None)
        if lambda_bound is None:
            lambda_bound = lambda_conservative(self)
        elif not 0 <= lambda_bound < math.inf:
            raise ValueError(f"lambda_bound must be nonnegative and finite, got {lambda_bound}")
        self.lambda_bound = float(lambda_bound)

    @property
    def entries(self):
        """The K x m grid as nested lists, None at zero cells; built anew on
        each access."""
        grid = [[None] * self.sig.m for _ in range(self.sig.K)]
        for k, i, e in self.nonzeros:
            grid[k][i] = e
        return grid


def _skew_layout(sig, k, i, w):
    """(targets, sources, weights) of the scalar cells w[c] * Id at
    (k[c], i[c]) over the flat array (x, v), laid out coordinate by
    coordinate in cell order, in one np.repeat pass: coordinate j of a cell
    sits j places after the cell's first one.  The adjoint half reads v
    into x with the weights, the forward half x into v with them negated."""
    dims_p, dims_d = np.array(sig.dims_primal), np.array(sig.dims_dual)
    size = dims_p[i]                                 # scalar cells are square
    first = np.cumsum(size) - size
    within = np.arange(first[-1] + size[-1]) - np.repeat(first, size)
    dual = np.repeat((np.cumsum(dims_d) - dims_d + dims_p.sum())[k], size) + within
    cols = np.repeat((np.cumsum(dims_p) - dims_p)[i], size) + within
    w = np.repeat(np.array(w), size)
    return np.concatenate((cols, dual)), np.concatenate((dual, cols)), np.concatenate((w, -w))


def check_flat(a, n, side):
    """SignatureError unless ``a`` is a 1-D array of length n."""
    if getattr(a, "shape", None) != (n,):
        raise SignatureError(f"{side} vector must be a 1-D array of length {n}, "
                             f"got {getattr(a, 'shape', type(a).__name__)}")


def _sweep(L, w, out=None):
    """(L* v, -L x) at the flat array w = (x, v), into out, or a new array:
    the small scalar cells in one scatter for both halves, then every other
    cell read once for both of its products, where a +-Id cell adds or
    subtracts its source without a product.  Each coordinate sums its
    terms in cell order."""
    if out is None:
        out = np.empty(w.size)
    if L.skew_gather is None:
        out.fill(0.0)                   # bincount over no terms gives int64 zeros
    else:
        targets, sources, weights = L.skew_gather
        out[:] = np.bincount(targets, weights * w[sources], w.size)
    for xs, vs, e in L.skew_cells:
        if isinstance(e, float) and abs(e) == 1.0:      # +-x is exact: no product
            add, sub = (np.add, np.subtract) if e > 0 else (np.subtract, np.add)
            add(out[xs], w[vs], out[xs])
            sub(out[vs], w[xs], out[vs])
        else:
            out[xs] += entry_apply_adjoint(e, w[vs])
            out[vs] -= entry_apply(e, w[xs])
    return out


def apply_skew(L, w, out=None):
    """The skew coupling at the flat product-space array w = (x, v): the
    flat array (L* v, -L x), into out or a new array, in one sweep."""
    check_flat(w, L.n_primal + L.n_dual, "primal-dual")
    return _sweep(L, w, out)


def apply_block(L, x):
    """Apply the grid to the flat primal array x: dual block k of the new
    flat dual array is sum_i L_ki x_i.  A full sweep at (x, 0) leaves -L x
    in its dual half, each sum negated exactly; 0 - (-s) gives s back, and
    +0 where s is a zero of either sign, as a sum from zeros would."""
    check_flat(x, L.n_primal, "primal")
    return 0.0 - _sweep(L, np.concatenate((x, np.zeros(L.n_dual))))[L.n_primal:]


def apply_adjoint(L, v):
    """Apply the adjoint grid to the flat dual array v: primal block i is
    sum_k L_ki^T v_k, the primal half of a full sweep at (0, v)."""
    check_flat(v, L.n_dual, "dual")
    return _sweep(L, np.concatenate((np.zeros(L.n_primal), v)))[:L.n_primal]


def lambda_conservative(L):
    """Certified upper bound on ||L||^2 from the grid of entry norms.

    With N the K x m matrix of entry norms N_ki >= ||L_ki||, the triangle
    and Cauchy-Schwarz inequalities give ||Lx|| <= ||N (||x_i||)_i||, so
    ||L||^2 <= ||N||^2, the spectral radius of N^T N and of N N^T.  For a
    nonnegative matrix A every Collatz-Wielandt ratio max_j (A u)_j / u_j
    of a positive u bounds the spectral radius from above.  Alternating
    steps x -> N x -> N^T N x from the ones vector give such ratios for
    both products, and the ratios never rise along them.  The steps run
    until one leaves the ratio where it was, CW_STEPS at most; the least
    ratio, inflated by ROUNDING_MARGIN, is capped by the sum of squared
    entry norms, which bounds ||N||^2 as well and is inflated too unless
    exact.  Where the bound overflows, ParameterError keyed by the cell
    (k, i) with the largest entry norm.
    """
    sq = [entry_norm_sq(e) for _, _, e in L.nonzeros]
    bound = _grid_bound(L, sq)
    if not bound < math.inf:
        k, i, _ = L.nonzeros[sq.index(max(sq))]
        raise ParameterError(f"entry ({k},{i}) {ENTRY_TOO_LARGE}", key=(k, i))
    return bound


def _grid_bound(L, sq):
    """lambda_conservative's bound from the squared norms ``sq`` of L's
    nonzero entries; inf where it overflows."""
    top = max(sq, default=0.0)
    if top in (0.0, math.inf):                  # no coupling, or an entry norm overflows
        return top
    rows, cols = L.cell_rows, L.cell_cols
    n = np.sqrt(np.array(sq) / top)
    K, m = L.sig.K, L.sig.m
    # x and y grow by at most nnz per step (n <= 1), far from overflow.
    # They are floored to stay positive where a row or column has no
    # nonzero entry (its ratio is then 0) or where they underflow; a floor
    # only raises the ratios it enters, so those stay upper bounds.
    x = 1.0                                                         # ones
    y = np.maximum(np.bincount(rows, n, K), _TINY)                  # N x
    best = math.inf
    for _ in range(CW_STEPS):
        z = np.bincount(cols, n * y[rows], m)                       # N^T y
        ratio = (z / x).max()
        x = np.maximum(z, _TINY)
        y_next = np.bincount(rows, n * x[cols], K)                  # N x
        ratio = min(ratio, (y_next / y).max())
        if not ratio < best:
            break
        best = ratio
        y = np.maximum(y_next, _TINY)
    bound = float(best) * top * (1.0 + ROUNDING_MARGIN)
    try:
        total = math.fsum(sq)
    except OverflowError:                       # the squares add up past the float range
        total = math.inf
    # the cap binds where N has rank about one, so that the sum is about
    # ||N||^2 itself: it is taken as is only when no rounding entered it
    if total < bound and not _exact_scalar_sum(L.nonzeros, sq, total):
        total *= 1.0 + ROUNDING_MARGIN
    return min(bound, total)


def _exact_scalar_sum(nonzeros, sq, total):
    """Whether every entry is a scalar whose square is exact in floating
    point (at most 26 significant bits) and ``total`` is their exact sum."""
    return (all(isinstance(e, float) and abs(e).as_integer_ratio()[0].bit_length() <= 26
                for _, _, e in nonzeros)
            and math.fsum(sq + [-total]) == 0.0)


def lambda_power_iteration(L):
    """Estimate ||L||^2 by power iteration on L*L, inflated by a safety
    factor and capped at the certified bound ``lambda_conservative(L)``.

    The estimate approaches ||L||^2 from below, so only the cap is
    certified.  Returns the cap when the iteration does not settle within
    1000 steps, as near a tie of the two largest singular values.
    """
    cap = lambda_conservative(L)
    est = _power_norm_sq(lambda x: apply_adjoint(L, apply_block(L, x)),
                         sum(L.sig.dims_primal), cap, 1000)
    return cap if est is None else est

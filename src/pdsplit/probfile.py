"""Line-oriented text format for problem instances.

A problem file looks like the ``twobox`` demo (``pdsplit demo twobox``)

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

One directive per line, indices 1-based, '#' starts a comment line; a line
such as ``config gamma 0.2`` sets a solver setting.  Dense matrices are
whitespace-separated rows between ``entry k i dense`` and ``end``.  Vector
parameters use commas (``lo=0,0``), matrices semicolons between rows
(``M=2,0;0,2``); a single number stands for the constant vector (or
multiple of the identity) of the operator's block size.

Reading is strict: a second line for the same slot, a malformed or NaN
number, an infinite ``vec`` component, or a directive that
``build_problem`` does not read for the kind is a ``ParseError`` starting
with its line; an infinite parameter is left to its operator to reject.
``ProblemFile.slots`` keeps each directive's value under its slot, such as
``('op', 'f', 1)``; a hand-built file sets ``pf.slots[slot]``.  The
catalog is one table of constructors per family; ``CATALOG_IDS`` and
``pdsplit list-catalog`` are derived from it.  The README lists what each
kind reads.
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import (ENTRY_TOO_LARGE, BlockLinearOp, BlockVector, SpaceSig, entry_misfit,
                     entry_out_dim)
from .operators import (
    AffineMap, AffineOperator, Ball, Box, Halfspace, Hyperplane,
    IndicatorFunction, L1Norm, NormalCone, ParameterError, Point,
    QuadraticDistance, ScaledIdentity, ScaledIdentityMap, SquaredNorm,
    ZeroFunction, ZeroMap, ZeroOperator,
)
from .reductions import (
    CommonZeroProblem, FeasibilityRelaxation, MultivariateMinProblem,
    ParallelSumProblem, UnivariateMinProblem, solve_common_zero, solve_multivariate_min,
    solve_parallel_sum,
)
from .system import CoupledInclusionProblem, solve_system

__all__ = ["ProblemFile", "ParseError", "parse_problem", "build_problem", "KINDS",
           "CATALOG_IDS"]

KINDS = ("system", "parallel_sum", "common_zero", "multivar_min",
         "univar_min", "feasibility")

# config key -> (value type, setting): the FbfConfig field or error-schedule
# argument it sets, named as ParameterError.key names it.  The file's key
# order, the CLI's run flags and cli.make_config all read this table.
CONFIG_KEYS = {"gamma": (float, "gamma"), "epsilon": (float, "epsilon"),
               "max_iters": (int, "max_iters"), "tol": (float, "residual_tol"),
               "error_eta": (float, "eta"), "error_p": (float, "p"),
               "seed": (int, "seed")}

# dimension directives and the least value each of their integers may take
_DIM_MIN = {"primal_dims": 1, "dual_dims": 1, "dim": 1, "k1": 0, "k2": 0}


class ParseError(ValueError):
    """Malformed problem file; the message carries a line number."""


class ProblemFile:
    """Parsed form of a problem file: structure only, no solver objects.
    ``slots`` maps the slot of each directive but config, the tuple of its
    leading tokens such as ('dim',), ('op', 'f', 1), ('op', 'A'), ('vec', 'z')
    or ('entry', 2, 1) (also 'L 2'), to its value; a hand-built file sets
    ``pf.slots[slot]``."""

    def __init__(self, kind):
        if kind not in KINDS:
            raise ParseError(f"unknown problem kind {kind!r}")
        self.kind = kind
        self.slots = {}      # slot -> tuple/int dims, (catalog_id, params), entry, 1-D ndarray
        self.config = {}     # solver overrides
        self.lines = {}      # slot of each directive, config too -> its line number


def _text(slot):
    return " ".join(map(str, slot))


def entry_too_large(pf, cell):
    """The error for the coupling cell (k, i), 0-based, whose norm bound
    overflows, led by the line of pf it came from: ``entry k+1 i+1``, or
    ``L k+1`` for the cell (k, 0) of a lifted grid."""
    slot = ("entry", cell[0] + 1, cell[1] + 1)
    line = pf.lines.get(slot)
    return f"{'' if line is None else f'line {line}: '}{_text(slot)} {ENTRY_TOO_LARGE}"


# ---------------------------------------------------------------------------
# Parsing

def _number(cast, tok, line):
    """tok converted by cast (int or float), the one place where a file's
    numbers are read.  A malformed token or a NaN raises a ParseError that
    names the line; ±inf passes."""
    try:
        val = cast(tok)
    except ValueError:
        val = math.nan
    if val != val:
        what = "an integer" if cast is int else "a number"
        raise ParseError(f"line {line}: {tok!r} is not {what}")
    return val


def _param_value(tok, line):
    if "," not in tok and ";" not in tok:
        return _number(float, tok, line)
    rows = [[_number(float, t, line) for t in row.split(",")]
            for row in tok.split(";")]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError(f"line {line}: matrix {tok!r} has ragged rows")
    return np.array(rows if ";" in tok else rows[0])


def parse_problem(text):
    lines = text.split("\n")
    pf = None
    i = 0

    def fail(msg):
        raise ParseError(f"line {line}: {msg}")

    while i < len(lines):
        toks = lines[i].split()
        i += 1
        line = i
        if not toks or toks[0].startswith("#"):
            continue
        key, args = toks[0], toks[1:]
        if pf is None:
            if key != "problem" or len(args) != 1:
                fail("file must start with 'problem <kind>'")
            if args[0] not in KINDS:
                fail(f"unknown problem kind {args[0]!r}")
            pf = ProblemFile(args[0])
            continue
        if key == "op":
            if len(args) < 2:
                fail("op needs a role and a catalog id")
            role = args[0]
            if args[1].isdigit():
                if len(args) < 3:
                    fail("op with an index needs a catalog id")
                n = _number(int, args[1], line)
                if n < 1:
                    fail("op indices start at 1")
                slot, cid, rest = ("op", role, n), args[2], args[3:]
            else:
                slot, cid, rest = ("op", role), args[1], args[2:]
            if cid not in CATALOG_IDS:
                fail(f"unknown catalog id {cid!r}")
            params = {}
            for item in rest:
                pname, eq, val = item.partition("=")
                if not eq:
                    fail(f"malformed parameter {item!r}")
                if pname in params:
                    fail(f"parameter {pname!r} given twice")
                params[pname] = _param_value(val, line)
            value = cid, params
        elif key == "entry" or key == "L":
            head = 2 if key == "entry" else 1  # indices before the tag
            if len(args) <= head:
                fail("entry needs row, column, and a tag" if head == 2
                     else "L needs an index and a tag")
            k = _number(int, args[0], line)
            col = _number(int, args[1], line) if head == 2 else 1
            tag, rest = args[head], args[head + 1:]
            if tag == "scale" and len(rest) == 1:
                value = _number(float, rest[0], line)
            elif (tag == "zero" or tag == "identity") and not rest:
                value = None if tag == "zero" else 1.0
            elif tag == "dense" and not rest:
                rows = []
                while i < len(lines) and lines[i].strip() != "end":
                    row = lines[i].split()
                    i += 1
                    if row and not row[0].startswith("#"):
                        rows.append([_number(float, t, i) for t in row])
                        if len(row) != len(rows[0]):
                            raise ParseError(f"line {i}: dense row of {len(row)} "
                                             f"numbers after rows of {len(rows[0])}")
                if i == len(lines):
                    fail("dense block missing 'end'")
                if not rows:
                    fail("dense block has no rows")
                i += 1
                value = np.array(rows)
            else:
                fail(f"entry tag {' '.join(args[head:])!r} is not one of "
                     "'zero', 'identity', 'scale <number>', 'dense'")
            slot = ("entry", k, col)
        elif key == "vec":
            if not args:
                fail("vec needs a name")
            slot = ("vec", args[0])
            value = np.array([_number(float, t, line) for t in args[1:]])
        elif key in _DIM_MIN:
            vals = [_number(int, t, line) for t in args]
            if not key.endswith("_dims") and len(vals) != 1:
                fail(f"{key} takes one integer")
            if not vals or min(vals) < _DIM_MIN[key]:
                fail(f"{key} takes integers >= {_DIM_MIN[key]}")
            slot = (key,)
            value = tuple(vals) if key.endswith("_dims") else vals[0]
        elif key == "config":
            if len(args) != 2 or args[0] not in CONFIG_KEYS:
                fail(f"config takes one of {tuple(CONFIG_KEYS)} and a value")
            slot = ("config", args[0])
            value = _number(CONFIG_KEYS[args[0]][0], args[1], line)
        else:
            fail(f"unknown directive {key!r}")
        if slot in pf.lines:
            fail(f"{_text(slot)} repeats line {pf.lines[slot]}")
        pf.lines[slot] = line
        if key == "config":
            pf.config[args[0]] = value
        else:
            pf.slots[slot] = value
    if pf is None:
        raise ParseError("empty problem file")
    return pf


# ---------------------------------------------------------------------------
# Catalog: one constructor table per family


_REQUIRED = object()


class _Params:
    """The parameters of the op line at slot, read by the constructor of
    catalog id cid for a block of size dim.  A read that finds a parameter
    missing, misshapen or NaN raises a ParseError naming the op line."""

    __slots__ = ("rd", "slot", "cid", "left", "dim")

    def __init__(self, rd, slot, cid, params, dim):
        self.rd, self.slot, self.cid, self.left, self.dim = (
            rd, slot, cid, dict(params), dim)

    def fail(self, msg):
        raise ParseError(f"{self.rd.where(self.slot)}{self.cid}: {msg}")

    def _take(self, name, default, shape):
        """The parameter as a float, or as an array of the given shape."""
        if name not in self.left:
            if default is _REQUIRED:
                self.fail(f"missing parameter {name}=")
            return default
        val = self.left.pop(name)
        if not isinstance(val, float) and np.ndim(val) == 0:
            val = float(val)
        if isinstance(val, float):
            if val != val:
                self.fail(f"parameter {name} is NaN")
            return val
        val = np.asarray(val, dtype=float)
        if val.shape != shape:
            self.fail(f"parameter {name} needs "
                      + (f"shape {shape}" if shape else "one number"))
        if np.isnan(val).any():
            self.fail(f"parameter {name} is NaN")
        return val

    def scalar(self, name, default=_REQUIRED):
        return self._take(name, default, ())

    def vector(self, name, default=_REQUIRED):
        val = self._take(name, default, (self.dim,))
        return np.full(self.dim, val) if isinstance(val, float) else val

    def matrix(self, name):
        val = self._take(name, _REQUIRED, (self.dim, self.dim))
        return np.diag(np.full(self.dim, val)) if isinstance(val, float) else val


def _wrapped(table, wrap, prefix="", ids=None):
    """The constructors of table (or of its ids), renamed with prefix and
    with wrap applied to what they build."""
    return {prefix + cid: (lambda p, mk=table[cid]: wrap(mk(p)))
            for cid in (table if ids is None else ids)}


_SETS = {
    "box": lambda p: Box(p.vector("lo"), p.vector("hi")),
    "ball": lambda p: Ball(p.vector("center"), p.scalar("radius")),
    "halfspace": lambda p: Halfspace(p.vector("u"), p.scalar("rho")),
    "hyperplane": lambda p: Hyperplane(p.vector("u"), p.scalar("rho")),
    "point": lambda p: Point(p.vector("c")),
}
_FUNCTIONS = {
    "zero": lambda p: ZeroFunction(),
    "l1": lambda p: L1Norm(p.scalar("weight", 1.0)),
    "sqdist": lambda p: QuadraticDistance(p.vector("a")),
    "sqnorm": lambda p: SquaredNorm(p.scalar("omega")),
    **_wrapped(_SETS, IndicatorFunction, "indicator_"),
}
_STRONGLY_CONVEX = {"sqnorm": _FUNCTIONS["sqnorm"]}

# family -> {catalog id: constructor taking a _Params}
_CATALOG = {
    "convex set": _SETS,
    "convex function": _FUNCTIONS,
    "monotone operator": {
        "zero": lambda p: ZeroOperator(),
        "scaled_identity": lambda p: ScaledIdentity(p.scalar("c")),
        "affine": lambda p: AffineOperator(p.matrix("M"), p.vector("b", None)),
        **_wrapped(_SETS, NormalCone, "normal_cone_"),
        **_wrapped(_FUNCTIONS, lambda fn: fn.subdifferential(), "subdiff_",
                   ("l1", "sqdist", "sqnorm")),
        **_wrapped(_FUNCTIONS, lambda fn: fn.subdifferential(),
                   ids=["indicator_" + s for s in _SETS]),
    },
    "Lipschitz operator": {
        "zero": lambda p: ZeroMap(),
        "scaled_identity": lambda p: ScaledIdentityMap(p.scalar("c")),
        "affine": lambda p: AffineMap(p.matrix("M"), p.vector("b", None)),
    },
    "smooth function": {cid: _FUNCTIONS[cid] for cid in ("zero", "sqdist", "sqnorm")},
    "strongly convex function": _STRONGLY_CONVEX,
    "ell coupling": {"none": lambda p: None, **_STRONGLY_CONVEX},
    "feasibility penalty": {
        "point_zero": lambda p: IndicatorFunction(Point(np.zeros(p.dim))),
        **_STRONGLY_CONVEX,
    },
}

CATALOG_IDS = frozenset(cid for table in _CATALOG.values() for cid in table)


# ---------------------------------------------------------------------------
# Building solver problems


class _Reader:
    """Hands the directives of one ProblemFile to build_problem.  Each is
    taken at most once; finish() rejects the first one (by line) that no
    read took."""

    def __init__(self, pf):
        self.pf = pf
        self.left = dict(pf.slots)      # the slots no read has taken yet
        self.grid_shape = None

    def where(self, slot):
        line = self.pf.lines.get(slot)
        return "" if line is None else f"line {line}: "

    def need(self, name):
        if (name,) not in self.left:
            raise ParseError(f"{self.pf.kind} problem requires a '{name}' line")
        return self.left.pop((name,))

    def declared(self, role):
        """How many indexed 'op role' lines there are; they must be numbered
        1, 2, ... without gaps."""
        idxs = sorted(s[2] for s in self.pf.slots if s[:2] == ("op", role) and len(s) == 3)
        if not idxs:
            raise ParseError(f"missing 'op {role} 1 ...' declaration")
        for n, i in enumerate(idxs, 1):
            if i != n:
                slot = ("op", role, i)
                raise ParseError(f"{self.where(slot)}{_text(slot)}: 'op {role}' "
                                 "lines must be numbered 1, 2, ... without gaps")
        return len(idxs)

    def op(self, role, family, dim, idx=None):
        slot = ("op", role) if idx is None else ("op", role, idx)
        if slot not in self.left:
            raise ParseError(f"missing '{_text(slot)} ...' declaration")
        cid, params = self.left.pop(slot)
        makers = _CATALOG[family]
        if cid not in makers:
            raise ParseError(f"{self.where(slot)}catalog id {cid!r} is not in the "
                             f"{family} family: {', '.join(sorted(makers))}")
        p = _Params(self, slot, cid, params, dim)
        try:
            built = makers[cid](p)
        except ParameterError as exc:
            p.fail(str(exc))
        if p.left:
            p.fail(f"unknown parameter {next(iter(p.left))}=")
        return built

    def ops(self, role, family, dims, start=0):
        """One op per block size in dims, with indices from start + 1 on."""
        return [self.op(role, family, d, i) for i, d in enumerate(dims, start + 1)]

    def vec(self, name, dims, required=True):
        if ("vec", name) not in self.left:
            if required:
                raise ParseError(f"missing 'vec {name} ...' line")
            return BlockVector.zeros(dims)
        flat = self.left.pop(("vec", name))
        if flat.size != sum(dims):
            raise ParseError(f"{self.where(('vec', name))}vec {name} has "
                             f"{flat.size} components, expected {sum(dims)}")
        if not np.isfinite(flat).all():
            raise ParseError(f"{self.where(('vec', name))}vec {name} must be finite")
        return BlockVector.wrap(flat.copy(), dims)   # shares no memory with the file

    def grid(self, dims_out, dims_in):
        """The entries of the coupling grid as {(k, i): entry}; a None in
        dims_out lets that row's entries have any number of rows."""
        K, m = self.grid_shape = len(dims_out), len(dims_in)
        cells = {(s[1] - 1, s[2] - 1): self.left.pop(s) for s in list(self.left)
                 if s[0] == "entry" and 1 <= s[1] <= K and 1 <= s[2] <= m}
        for (k, i), e in cells.items():
            misfit = entry_misfit(e, dims_out[k], dims_in[i])
            if misfit:
                slot = ("entry", k + 1, i + 1)
                raise ParseError(f"{self.where(slot)}{_text(slot)} {misfit}")
        return cells

    def column(self, dims_out, dim):
        cells = self.grid(dims_out, (dim,))
        return [cells.get((k, 0)) for k in range(len(dims_out))]

    def finish(self):
        if not self.left:
            return
        slot = min(self.left, key=lambda s: self.pf.lines.get(s, math.inf))
        if slot[0] == "entry" and self.grid_shape:
            K, m = self.grid_shape
            msg = f"{_text(slot)} lies outside the {K} x {m} coupling grid"
        else:
            msg = f"{_text(slot)} is not read by this {self.pf.kind} problem"
        raise ParseError(self.where(slot) + msg)


def build_problem(pf):
    """Returns (problem object, solver function).  Raises ParseError on a
    directive the kind does not read, naming its line."""
    rd, kind = _Reader(pf), pf.kind
    mono, lip, fn = "monotone operator", "Lipschitz operator", "convex function"
    if kind in ("system", "multivar_min"):
        sig = SpaceSig(rd.need("primal_dims"), rd.need("dual_dims"))
        dp, dd = sig.dims_primal, sig.dims_dual
        try:
            L = BlockLinearOp(rd.grid(dd, dp), sig)
        except ParameterError as exc:       # the norm bound overflows
            raise ParseError(entry_too_large(pf, exc.key)) from None
        z, r = rd.vec("z", dp), rd.vec("r", dd)
        if kind == "system":
            built = CoupledInclusionProblem(
                sig, rd.ops("A", mono, dp), rd.ops("C", lip, dp),
                rd.ops("B", mono, dd), rd.ops("Dinv", lip, dd), L, z, r,
            ), solve_system
        else:
            built = MultivariateMinProblem(
                sig, rd.ops("f", fn, dp), rd.ops("h", "smooth function", dp),
                rd.ops("g", fn, dd), rd.ops("ell", "ell coupling", dd), z, r, L,
            ), solve_multivariate_min
    elif kind in ("parallel_sum", "univar_min"):
        dim, dd = rd.need("dim"), rd.need("dual_dims")
        K1, K2 = rd.need("k1"), rd.need("k2")
        if not K1 <= K2 <= len(dd):
            raise ParseError(f"{rd.where(('k2',))}need k1 <= k2 <= {len(dd)}, "
                             "the number of dual blocks")
        z = rd.vec("z", (dim,), required=False)[0]
        r, L = rd.vec("r", dd).blocks, rd.column(dd, dim)
        if kind == "parallel_sum":
            prob = ParallelSumProblem(
                dim, dd, K1, K2, rd.op("A", mono, dim), rd.op("C", lip, dim),
                z, r, rd.ops("B", mono, dd),
                rd.ops("S", mono, dd[:K1]) + rd.ops("S", lip, dd[K1:], K1), L,
            )
        else:
            phi = (rd.ops("phi", fn, dd[:K1])
                   + rd.ops("phi", "smooth function", dd[K1:K2], K1)
                   + rd.ops("phi", "strongly convex function", dd[K2:], K2))
            prob = UnivariateMinProblem(
                dim, dd, K1, K2, rd.op("f", fn, dim),
                rd.op("h", "smooth function", dim), rd.ops("g", fn, dd), phi,
                z, r, L,
            )
        built = prob, solve_parallel_sum
    elif kind == "common_zero":
        dim = rd.need("dim")
        dims = [dim] * rd.declared("B")
        built = CommonZeroProblem(
            dim, rd.op("A", mono, dim), rd.ops("B", mono, dims),
            rd.ops("S", mono, dims),
        ), solve_common_zero
    else:
        dim = rd.need("dim")
        L = rd.column([None] * rd.declared("set"), dim)
        dims = [entry_out_dim(e, dim) for e in L]
        built = FeasibilityRelaxation(
            dim, rd.ops("set", "convex set", dims),
            rd.ops("phi", "feasibility penalty", dims), L,
        ), solve_parallel_sum
    rd.finish()
    return built

"""Line-oriented text format for problem instances.

A problem file looks like

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
    config gamma 0.2

Dense matrices appear as whitespace-separated rows between an ``entry k i
dense`` line and an ``end`` line.  Vector-valued operator parameters use
commas (``lo=0,0``), matrix-valued ones semicolons between rows
(``M=2,0;0,2``).  Lines starting with '#' are comments.  Indices are
1-based in files.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockLinearOp, BlockVector, SpaceSig
from .operators import (
    AffineMap,
    AffineOperator,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    IndicatorFunction,
    L1Norm,
    NormalCone,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    ScaledIdentityMap,
    SquaredNorm,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
)
from .reductions import (
    CommonZeroProblem,
    FeasibilityRelaxation,
    MultivariateMinProblem,
    ParallelSumProblem,
    Smooth,
    UnivariateMinProblem,
    solve_common_zero,
    solve_feasibility_relaxation,
    solve_multivariate_min,
    solve_parallel_sum,
    solve_univariate_min,
    zero_smooth,
)
from .system import CoupledInclusionProblem, solve_system

__all__ = ["ProblemFile", "ParseError", "parse_problem", "serialize_problem",
           "build_problem", "KINDS", "CATALOG_IDS"]

KINDS = ("system", "parallel_sum", "common_zero", "multivar_min",
         "univar_min", "feasibility")

CONFIG_KEYS = ("gamma", "epsilon", "max_iters", "tol", "error_eta",
               "error_p", "seed")


class ParseError(ValueError):
    """Malformed problem file; the message carries a line number."""


class ProblemFile:
    """Parsed form of a problem file: structure only, no solver objects."""

    def __init__(self, kind):
        if kind not in KINDS:
            raise ParseError(f"unknown problem kind {kind!r}")
        self.kind = kind
        self.dims = {}       # primal_dims/dual_dims tuples, dim/k1/k2 ints
        self.ops = {}        # role -> {index-or-None: (catalog_id, params)}
        self.entries = {}    # (k, i) -> None | float | ndarray
        self.entry_lines = {}  # (k, i) -> line number of its entry line
        self.vecs = {}       # name -> 1-D ndarray
        self.config = {}     # solver overrides

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        if self.kind != other.kind or self.dims != other.dims:
            return False
        if self.config != other.config or self.vecs.keys() != other.vecs.keys():
            return False
        if any(not np.array_equal(self.vecs[k], other.vecs[k]) for k in self.vecs):
            return False
        if self.ops.keys() != other.ops.keys():
            return False
        for role in self.ops:
            a, b = self.ops[role], other.ops[role]
            if a.keys() != b.keys():
                return False
            for idx in a:
                if a[idx][0] != b[idx][0] or not _params_equal(a[idx][1], b[idx][1]):
                    return False
        if self.entries.keys() != other.entries.keys():
            return False
        return all(
            _entry_equal(self.entries[k], other.entries[k]) for k in self.entries
        )


def _params_equal(a, b):
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(a[k], b[k]) for k in a)


def _entry_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and a == b
    return np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Parsing


def _parse_value(tok):
    if ";" in tok:
        return np.array(
            [[float(x) for x in row.split(",")] for row in tok.split(";")]
        )
    if "," in tok:
        return np.array([float(x) for x in tok.split(",")])
    return float(tok)


def _format_value(val):
    if isinstance(val, float):
        return format(val, ".17g")
    arr = np.asarray(val)
    if arr.ndim == 1:
        return ",".join(format(x, ".17g") for x in arr)
    return ";".join(",".join(format(x, ".17g") for x in row) for row in arr)


def parse_problem(text):
    lines = text.split("\n")
    pf = None
    i = 0

    def err(msg):
        raise ParseError(f"line {i + 1}: {msg}")

    while i < len(lines):
        raw = lines[i].strip()
        if not raw or raw.startswith("#"):
            i += 1
            continue
        toks = raw.split()
        key = toks[0]
        if pf is None:
            if key != "problem" or len(toks) != 2:
                err("file must start with 'problem <kind>'")
            if toks[1] not in KINDS:
                err(f"unknown problem kind {toks[1]!r}")
            pf = ProblemFile(toks[1])
        elif key in ("primal_dims", "dual_dims"):
            try:
                pf.dims[key] = tuple(int(t) for t in toks[1:])
            except ValueError:
                err(f"non-integer dimension in {key}")
        elif key in ("dim", "k1", "k2"):
            if len(toks) != 2:
                err(f"{key} takes one integer")
            try:
                pf.dims[key] = int(toks[1])
            except ValueError:
                err(f"non-integer {key}")
        elif key == "op":
            if len(toks) < 3:
                err("op needs a role and a catalog id")
            role = toks[1]
            if len(toks) >= 4 and toks[2].isdigit():
                idx, cid, rest = int(toks[2]) - 1, toks[3], toks[4:]
            elif toks[2].isdigit():
                err("op with an index needs a catalog id")
            else:
                idx, cid, rest = None, toks[2], toks[3:]
            if cid not in CATALOG_IDS:
                err(f"unknown catalog id {cid!r}")
            params = {}
            for item in rest:
                if "=" not in item:
                    err(f"malformed parameter {item!r}")
                name, _, val = item.partition("=")
                try:
                    params[name] = _parse_value(val)
                except ValueError:
                    err(f"malformed value for parameter {name!r}")
            pf.ops.setdefault(role, {})[idx] = (cid, params)
        elif key == "vec":
            if len(toks) < 2:
                err("vec needs a name")
            try:
                pf.vecs[toks[1]] = np.array([float(t) for t in toks[2:]])
            except ValueError:
                err("malformed vector component")
        elif key in ("entry", "L"):
            line_no = i + 1
            if key == "entry":
                if len(toks) < 4:
                    err("entry needs row, column, and a tag")
                k, col, tag, rest = int(toks[1]), int(toks[2]), toks[3], toks[4:]
            else:
                if len(toks) < 3:
                    err("L needs an index and a tag")
                k, col, tag, rest = int(toks[1]), 1, toks[2], toks[3:]
            if tag == "zero":
                val = None
            elif tag == "identity":
                val = 1.0
            elif tag == "scale":
                if len(rest) != 1:
                    err("scale takes one number")
                val = float(rest[0])
            elif tag == "dense":
                rows = []
                i += 1
                while i < len(lines) and lines[i].strip() != "end":
                    row = lines[i].strip()
                    if row and not row.startswith("#"):
                        rows.append([float(t) for t in row.split()])
                    i += 1
                if i == len(lines):
                    err("dense block missing 'end'")
                val = np.array(rows)
            else:
                err(f"unknown entry tag {tag!r}")
            pf.entries[(k - 1, col - 1)] = val
            pf.entry_lines[(k - 1, col - 1)] = line_no
        elif key == "config":
            if len(toks) != 3 or toks[1] not in CONFIG_KEYS:
                err(f"config takes one of {CONFIG_KEYS} and a value")
            name = toks[1]
            try:
                if name in ("max_iters", "seed"):
                    pf.config[name] = int(toks[2])
                else:
                    pf.config[name] = float(toks[2])
            except ValueError:
                err(f"malformed config value for {name}")
        else:
            err(f"unknown directive {key!r}")
        i += 1
    if pf is None:
        raise ParseError("empty problem file")
    return pf


def serialize_problem(pf):
    out = [f"problem {pf.kind}"]
    for key in ("primal_dims", "dual_dims"):
        if key in pf.dims:
            out.append(f"{key} " + " ".join(str(d) for d in pf.dims[key]))
    for key in ("dim", "k1", "k2"):
        if key in pf.dims:
            out.append(f"{key} {pf.dims[key]}")
    for role in sorted(pf.ops):
        table = pf.ops[role]
        for idx in sorted(table, key=lambda t: -1 if t is None else t):
            cid, params = table[idx]
            parts = ["op", role]
            if idx is not None:
                parts.append(str(idx + 1))
            parts.append(cid)
            for name in sorted(params):
                parts.append(f"{name}={_format_value(params[name])}")
            out.append(" ".join(parts))
    for name in sorted(pf.vecs):
        out.append(
            f"vec {name} " + " ".join(format(x, ".17g") for x in pf.vecs[name])
        )
    for (k, col) in sorted(pf.entries):
        val = pf.entries[(k, col)]
        head = f"entry {k + 1} {col + 1}"
        if val is None:
            out.append(f"{head} zero")
        elif isinstance(val, float):
            out.append(f"{head} scale {format(val, '.17g')}")
        else:
            out.append(f"{head} dense")
            for row in val:
                out.append(" ".join(format(x, ".17g") for x in row))
            out.append("end")
    for name in CONFIG_KEYS:
        if name in pf.config:
            val = pf.config[name]
            out.append(
                f"config {name} "
                + (str(val) if isinstance(val, int) else format(val, ".17g"))
            )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Catalog: id -> constructor, per role family


def _mk_monotone(cid, params):
    if cid == "zero":
        return ZeroOperator()
    if cid == "scaled_identity":
        return ScaledIdentity(float(params["c"]))
    if cid == "affine":
        M = np.atleast_2d(np.asarray(params["M"], dtype=float))
        return AffineOperator(M, params.get("b"))
    if cid.startswith("normal_cone_"):
        return NormalCone(_mk_set(cid[len("normal_cone_"):], params))
    if cid.startswith("subdiff_"):
        return _mk_function(cid[len("subdiff_"):], params).subdifferential()
    if cid.startswith("indicator_"):
        return _mk_function(cid, params).subdifferential()
    raise ParseError(f"catalog id {cid!r} is not a monotone operator")


def _mk_lipschitz(cid, params):
    if cid == "zero":
        return ZeroMap()
    if cid == "scaled_identity":
        return ScaledIdentityMap(float(params["c"]))
    if cid == "affine":
        M = np.atleast_2d(np.asarray(params["M"], dtype=float))
        return AffineMap(M, params.get("b"))
    raise ParseError(f"catalog id {cid!r} is not a Lipschitz operator")


def _mk_set(cid, params):
    if cid == "box":
        return Box(np.atleast_1d(params["lo"]), np.atleast_1d(params["hi"]))
    if cid == "ball":
        return Ball(np.atleast_1d(params["center"]), float(params["radius"]))
    if cid == "halfspace":
        return Halfspace(np.atleast_1d(params["u"]), float(params["rho"]))
    if cid == "hyperplane":
        return Hyperplane(np.atleast_1d(params["u"]), float(params["rho"]))
    if cid == "point":
        return Point(np.atleast_1d(params["c"]))
    raise ParseError(f"catalog id {cid!r} is not a convex set")


def _mk_function(cid, params):
    if cid == "zero":
        return ZeroFunction()
    if cid == "l1":
        return L1Norm(float(params.get("weight", 1.0)))
    if cid == "sqdist":
        return QuadraticDistance(np.atleast_1d(params["a"]))
    if cid == "sqnorm":
        return SquaredNorm(float(params["omega"]))
    if cid.startswith("indicator_"):
        return IndicatorFunction(_mk_set(cid[len("indicator_"):], params))
    raise ParseError(f"catalog id {cid!r} is not a convex function")


def _mk_smooth(cid, params):
    if cid == "zero":
        return zero_smooth()
    if cid == "sqdist":
        a = np.atleast_1d(np.asarray(params["a"], dtype=float))
        return Smooth(
            lambda x: 0.5 * float((x - a) @ (x - a)),
            AffineMap(np.eye(a.size), -a),
            conj=lambda u: float(a @ u) + 0.5 * float(u @ u),
            label="sqdist_smooth",
        )
    if cid == "sqnorm":
        w = float(params["omega"])
        return Smooth(
            lambda x: w * float(x @ x),
            ScaledIdentityMap(2.0 * w),
            conj=lambda u: float(u @ u) / (4.0 * w),
            label="sqnorm_smooth",
        )
    raise ParseError(f"catalog id {cid!r} is not a smooth function")


_SET_IDS = ("box", "ball", "halfspace", "hyperplane", "point")
_FN_IDS = ("zero", "l1", "sqdist", "sqnorm") + tuple(
    "indicator_" + s for s in _SET_IDS
)
CATALOG_IDS = frozenset(
    ("zero", "scaled_identity", "affine", "none", "point_zero")
    + _SET_IDS
    + _FN_IDS
    + tuple("normal_cone_" + s for s in _SET_IDS)
    + tuple("subdiff_" + f for f in ("l1", "sqdist", "sqnorm"))
)


# ---------------------------------------------------------------------------
# Building solver problems


def _need(pf, key):
    if key not in pf.dims:
        raise ParseError(f"{pf.kind} problem requires a '{key}' line")
    return pf.dims[key]


def _role_list(pf, role, count, maker):
    table = pf.ops.get(role, {})
    out = []
    for idx in range(count):
        if idx not in table:
            raise ParseError(f"missing 'op {role} {idx + 1} ...' declaration")
        out.append(maker(*table[idx]))
    return out


def _role_single(pf, role, maker):
    table = pf.ops.get(role, {})
    if None not in table:
        raise ParseError(f"missing 'op {role} ...' declaration")
    return maker(*table[None])


def _check_entry_range(pf, K, m):
    for k, i in pf.entries:
        if not (0 <= k < K and 0 <= i < m):
            where = pf.entry_lines.get((k, i))
            prefix = f"line {where}: " if where is not None else ""
            raise ParseError(
                f"{prefix}entry {k + 1} {i + 1} lies outside the {K} x {m} "
                "coupling grid"
            )


def _grid(pf, sig):
    _check_entry_range(pf, sig.K, sig.m)
    entries = [
        [pf.entries.get((k, i)) for i in range(sig.m)] for k in range(sig.K)
    ]
    return BlockLinearOp(entries, sig)


def _split_vec(pf, name, dims):
    if name not in pf.vecs:
        raise ParseError(f"missing 'vec {name} ...' line")
    flat = pf.vecs[name]
    if flat.size != sum(dims):
        raise ParseError(
            f"vec {name} has {flat.size} components, expected {sum(dims)}"
        )
    return BlockVector.from_flat(flat, dims)


def _column(pf, K):
    _check_entry_range(pf, K, 1)
    return [pf.entries.get((k, 0)) for k in range(K)]


def build_problem(pf):
    """Returns (problem object, solver function)."""
    if pf.kind == "system":
        sig = SpaceSig(_need(pf, "primal_dims"), _need(pf, "dual_dims"))
        prob = CoupledInclusionProblem(
            sig,
            _role_list(pf, "A", sig.m, _mk_monotone),
            _role_list(pf, "C", sig.m, _mk_lipschitz),
            _role_list(pf, "B", sig.K, _mk_monotone),
            _role_list(pf, "Dinv", sig.K, _mk_lipschitz),
            _grid(pf, sig),
            _split_vec(pf, "z", sig.dims_primal),
            _split_vec(pf, "r", sig.dims_dual),
        )
        return prob, solve_system
    if pf.kind == "parallel_sum":
        dim = _need(pf, "dim")
        dual_dims = _need(pf, "dual_dims")
        K = len(dual_dims)
        K1, K2 = _need(pf, "k1"), _need(pf, "k2")
        S = []
        table = pf.ops.get("S", {})
        for k in range(K):
            if k not in table:
                raise ParseError(f"missing 'op S {k + 1} ...' declaration")
            maker = _mk_monotone if k < K1 else _mk_lipschitz
            S.append(maker(*table[k]))
        prob = ParallelSumProblem(
            dim, dual_dims, K1, K2,
            _role_single(pf, "A", _mk_monotone),
            _role_single(pf, "C", _mk_lipschitz),
            pf.vecs.get("z", np.zeros(dim)),
            list(_split_vec(pf, "r", dual_dims).blocks),
            _role_list(pf, "B", K, _mk_monotone),
            S,
            _column(pf, K),
        )
        return prob, solve_parallel_sum
    if pf.kind == "common_zero":
        dim = _need(pf, "dim")
        K = max(pf.ops.get("B", {}), default=-1) + 1
        if K < 1:
            raise ParseError("common_zero needs at least one 'op B 1 ...'")
        prob = CommonZeroProblem(
            dim,
            _role_single(pf, "A", _mk_monotone),
            _role_list(pf, "B", K, _mk_monotone),
            _role_list(pf, "S", K, _mk_monotone),
        )
        return prob, solve_common_zero
    if pf.kind == "multivar_min":
        sig = SpaceSig(_need(pf, "primal_dims"), _need(pf, "dual_dims"))

        def mk_ell(cid, params):
            if cid == "none":
                return None
            if cid == "sqnorm":
                return SquaredNorm(float(params["omega"]))
            raise ParseError("ell entries must be 'none' or 'sqnorm'")

        prob = MultivariateMinProblem(
            sig,
            _role_list(pf, "f", sig.m, _mk_function),
            _role_list(pf, "h", sig.m, _mk_smooth),
            _role_list(pf, "g", sig.K, _mk_function),
            _role_list(pf, "ell", sig.K, mk_ell),
            _split_vec(pf, "z", sig.dims_primal),
            _split_vec(pf, "r", sig.dims_dual),
            _grid(pf, sig),
        )
        return prob, solve_multivariate_min
    if pf.kind == "univar_min":
        dim = _need(pf, "dim")
        dual_dims = _need(pf, "dual_dims")
        K = len(dual_dims)
        K1, K2 = _need(pf, "k1"), _need(pf, "k2")
        phi = []
        table = pf.ops.get("phi", {})
        for k in range(K):
            if k not in table:
                raise ParseError(f"missing 'op phi {k + 1} ...' declaration")
            if k < K1:
                phi.append(_mk_function(*table[k]))
            elif k < K2:
                phi.append(_mk_smooth(*table[k]))
            else:
                cid, params = table[k]
                if cid != "sqnorm":
                    raise ParseError(
                        "strongly convex phi entries must be 'sqnorm'"
                    )
                phi.append(SquaredNorm(float(params["omega"])))
        prob = UnivariateMinProblem(
            dim, dual_dims, K1, K2,
            _role_single(pf, "f", _mk_function),
            _role_single(pf, "h", _mk_smooth),
            _role_list(pf, "g", K, _mk_function),
            phi,
            pf.vecs.get("z", np.zeros(dim)),
            list(_split_vec(pf, "r", dual_dims).blocks),
            _column(pf, K),
        )
        return prob, solve_univariate_min
    if pf.kind == "feasibility":
        dim = _need(pf, "dim")
        K = max(pf.ops.get("set", {}), default=-1) + 1
        if K < 1:
            raise ParseError("feasibility needs at least one 'op set 1 ...'")

        def mk_phi(cid, params):
            if cid == "point_zero":
                d = int(params.get("dim", dim))
                return IndicatorFunction(Point(np.zeros(d)))
            if cid == "sqnorm":
                return SquaredNorm(float(params["omega"]))
            raise ParseError("phi entries must be 'point_zero' or 'sqnorm'")

        prob = FeasibilityRelaxation(
            dim,
            _role_list(pf, "set", K, _mk_set),
            _role_list(pf, "phi", K, mk_phi),
            _column(pf, K),
        )
        return prob, solve_feasibility_relaxation
    raise ParseError(f"unknown problem kind {pf.kind!r}")

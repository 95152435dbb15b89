import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdsplit import BlockLinearOp, FbfConfig, SignatureError, SpaceSig
from pdsplit.cli import main
from pdsplit.probfile import (
    CATALOG_IDS,
    KINDS,
    ParseError,
    ProblemFile,
    build_problem,
    parse_problem,
)

MULTIVAR_TEXT = """\
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
"""

FEASIBILITY_TEXT = """\
problem feasibility
dim 2
op set 1 box lo=0,0 hi=1,1
op set 2 hyperplane u=1,1 rho=3
op phi 1 point_zero
op phi 2 sqnorm omega=1
entry 1 1 identity
entry 2 1 identity
"""

SYSTEM_TEXT = """\
problem system
primal_dims 2
dual_dims 2
op A 1 normal_cone_box lo=-1,-1 hi=1,1
op C 1 zero
op B 1 scaled_identity c=1
op Dinv 1 zero
entry 1 1 dense
1 0.5
0 1
end
vec z 0.3 -0.2
vec r 0 0
"""


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_problem("problem multivar_min\nbogus directive\n")


def test_unknown_catalog_id_named():
    with pytest.raises(ParseError, match="no_such_op"):
        parse_problem("problem common_zero\ndim 1\nop A no_such_op\n")


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        parse_problem("problem nonsense\n")
    with pytest.raises(ParseError):
        parse_problem("")


def test_dense_block_requires_end():
    text = "problem system\nprimal_dims 1\ndual_dims 1\nentry 1 1 dense\n1\n"
    with pytest.raises(ParseError, match="end"):
        parse_problem(text)


def test_comments_and_blanks_ignored():
    text = "# header\n\nproblem common_zero\n# body\ndim 1\nop A zero\nop B 1 zero\nop S 1 scaled_identity c=1\n"
    pf = parse_problem(text)
    assert pf.kind == "common_zero"


def test_build_and_solve_multivar():
    pf = parse_problem(MULTIVAR_TEXT)
    prob, solver = build_problem(pf)
    report = solver(prob, FbfConfig())
    np.testing.assert_allclose(report.primal.flat(), [2.0, 1.0], atol=1e-6)


def test_build_and_solve_feasibility():
    pf = parse_problem(FEASIBILITY_TEXT)
    prob, solver = build_problem(pf)
    report = solver(prob, FbfConfig())
    np.testing.assert_allclose(report.primal.flat(), [1.0, 1.0], atol=1e-5)


def test_build_and_solve_system():
    pf = parse_problem(SYSTEM_TEXT)
    prob, solver = build_problem(pf)
    report = solver(prob, FbfConfig())
    assert report.converged
    pk, dk = report.kkt
    assert pk <= 1e-7 and dk <= 1e-7


def test_build_all_kinds_covered():
    assert set(KINDS) == {
        "system", "parallel_sum", "common_zero", "multivar_min",
        "univar_min", "feasibility",
    }


def test_build_parallel_sum_and_univar():
    psum = (
        "problem parallel_sum\ndim 1\ndual_dims 1\nk1 0\nk2 0\n"
        "op A normal_cone_box lo=0 hi=100\nop C zero\n"
        "op B 1 scaled_identity c=1\nop S 1 zero\n"
        "L 1 identity\nvec z 3\nvec r 0\n"
    )
    prob, solver = build_problem(parse_problem(psum))
    report = solver(prob, FbfConfig())
    assert report.primal[0][0] == pytest.approx(3.0, abs=1e-6)

    uni = (
        "problem univar_min\ndim 1\ndual_dims 1\nk1 1\nk2 1\n"
        "op f indicator_point c=1.2\nop h zero\n"
        "op g 1 sqdist a=0\nop phi 1 indicator_point c=0\n"
        "L 1 identity\nvec r 0\n"
    )
    prob, solver = build_problem(parse_problem(uni))
    report = solver(prob, FbfConfig())
    assert report.primal[0][0] == pytest.approx(1.2, abs=1e-6)


def test_univar_with_a_lipschitz_phi():
    # phi_1 = ||.||^2 enters through its gradient (k1 = 0 < k2 = 1), and
    # g_1 = indicator of {0} makes g_1 infconv phi_1 = phi_1: the minimizer
    # of (x - 3)^2 / 2 + x^2 solves (x - 3) + 2x = 0
    uni = (
        "problem univar_min\ndim 1\ndual_dims 1\nk1 0\nk2 1\n"
        "op f sqdist a=3\nop h zero\n"
        "op g 1 indicator_point c=0\nop phi 1 sqnorm omega=1\n"
        "L 1 identity\nvec r 0\n"
    )
    prob, solver = build_problem(parse_problem(uni))
    report = solver(prob, FbfConfig())
    assert report.converged
    assert report.primal[0][0] == pytest.approx(1.0, abs=1e-6)


def test_missing_declarations_raise():
    with pytest.raises(ParseError, match="op f"):
        build_problem(parse_problem(
            "problem multivar_min\nprimal_dims 1\ndual_dims 1\n"
            "op h 1 zero\nop g 1 sqdist a=0\nop ell 1 none\n"
            "entry 1 1 identity\nvec z 0\nvec r 0\n"
        ))
    with pytest.raises(ParseError, match="vec z"):
        build_problem(parse_problem(
            "problem multivar_min\nprimal_dims 1\ndual_dims 1\n"
            "op f 1 zero\nop h 1 zero\nop g 1 sqdist a=0\nop ell 1 none\n"
            "entry 1 1 identity\nvec r 0\n"
        ))


def test_out_of_range_entry_in_grid_names_line():
    # 'entry 5 7' is line 11 here, past the 1 x 2 grid of MULTIVAR_TEXT
    text = MULTIVAR_TEXT.replace("entry 1 2 scale -1", "entry 5 7 scale 1")
    with pytest.raises(ParseError, match="line 11: entry 5 7 .* 1 x 2"):
        build_problem(parse_problem(text))
    text = MULTIVAR_TEXT.replace("entry 1 2 scale -1", "entry 0 1 scale 1")
    with pytest.raises(ParseError, match="line 11: entry 0 1"):
        build_problem(parse_problem(text))


def test_out_of_range_entry_in_column_names_line():
    # a feasibility problem couples through one column: 'entry 2 2' is off it
    text = FEASIBILITY_TEXT.replace("entry 2 1 identity", "entry 2 2 identity")
    with pytest.raises(ParseError, match="line 8: entry 2 2 .* 2 x 1"):
        build_problem(parse_problem(text))
    text = FEASIBILITY_TEXT + "L 3 identity\n"
    with pytest.raises(ParseError, match="line 9: entry 3 1"):
        build_problem(parse_problem(text))


def test_config_keys_typed():
    pf = parse_problem(
        "problem common_zero\ndim 1\nop A zero\nop B 1 zero\n"
        "op S 1 scaled_identity c=1\nconfig max_iters 50\nconfig tol 1e-6\n"
    )
    assert pf.config["max_iters"] == 50
    assert pf.config["tol"] == 1e-6


def test_catalog_ids_cover_serialized_forms():
    for cid in ("zero", "scaled_identity", "affine", "l1", "sqdist", "sqnorm",
                "indicator_box", "normal_cone_hyperplane", "point_zero"):
        assert cid in CATALOG_IDS


# ---------------------------------------------------------------------------
# Strictness: every directive is read, every number is checked

PSUM_TEXT = """\
problem parallel_sum
dim 1
dual_dims 1
k1 0
k2 0
op A normal_cone_box lo=0 hi=100
op C zero
op B 1 scaled_identity c=1
op S 1 zero
L 1 identity
vec z 3
vec r 0
"""

UNIVAR_TEXT = """\
problem univar_min
dim 1
dual_dims 1
k1 1
k2 1
op f indicator_point c=1.2
op h zero
op g 1 sqdist a=0
op phi 1 indicator_point c=0
L 1 identity
vec r 0
"""

COMMON_ZERO_TEXT = """\
problem common_zero
dim 2
op A zero
op B 1 normal_cone_hyperplane u=1,0 rho=1
op B 2 normal_cone_ball center=0,0 radius=2
op S 1 scaled_identity c=1
op S 2 scaled_identity c=1
"""

VALID_TEXTS = (SYSTEM_TEXT, PSUM_TEXT, COMMON_ZERO_TEXT, MULTIVAR_TEXT,
               UNIVAR_TEXT, FEASIBILITY_TEXT)

# per kind: the roles it reads, and one dimension line it does not read
KIND_ROLES = {
    "system": (("A", "C", "B", "Dinv"), "dim 1"),
    "parallel_sum": (("A", "C", "B", "S"), "primal_dims 1"),
    "common_zero": (("A", "B", "S"), "k1 0"),
    "multivar_min": (("f", "h", "g", "ell"), "k2 0"),
    "univar_min": (("f", "h", "g", "phi"), "primal_dims 1"),
    "feasibility": (("set", "phi"), "dual_dims 1"),
}


def test_valid_texts_cover_every_kind_and_build():
    assert {parse_problem(t).kind for t in VALID_TEXTS} == set(KINDS)
    for text in VALID_TEXTS:
        build_problem(parse_problem(text))


# -- the reader returns each number exactly as written ------------------------

numbers = st.floats(allow_nan=False, width=64)  # +-inf and subnormals pass the reader


def _matrices(rows):
    """Lists of rows, each of the same 1 to 3 numbers."""
    return st.tuples(rows, st.integers(1, 3)).flatmap(lambda s: st.lists(
        st.lists(numbers, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]))


def _joined(sep, values):
    return sep.join(map(repr, values))


@settings(max_examples=60, deadline=None)
@given(a=numbers, lo=st.lists(numbers, min_size=2, max_size=4),
       M=_matrices(st.integers(2, 3)), z=st.lists(numbers, max_size=4),
       E=_matrices(st.integers(1, 3)),
       seed=st.integers(0, 2**64 - 1) | st.just(2**64 - 1))  # no float holds the last
def test_the_reader_returns_each_number_exactly(a, lo, M, z, E, seed):
    # a 1-D parameter needs a comma, a matrix a semicolon
    matrix = ";".join(_joined(",", row) for row in M)
    text = "\n".join([
        "problem system",
        f"op A 1 affine a={a!r} lo={_joined(',', lo)} M={matrix}",
        f"vec z {_joined(' ', z)}",
        "entry 1 1 dense", *(_joined(" ", row) for row in E), "end",
        f"config seed {seed}",
    ]) + "\n"
    pf = parse_problem(text)
    cid, params = pf.slots["op", "A", 1]
    assert cid == "affine" and set(params) == {"a", "lo", "M"}
    assert np.array_equal(params["a"], a) and np.array_equal(params["lo"], lo)
    assert np.array_equal(params["M"], M)
    assert np.array_equal(pf.slots["vec", "z"], z)
    assert np.array_equal(pf.slots["entry", 1, 1], E)
    assert pf.config == {"seed": seed}


# -- mutations that make a valid file invalid --------------------------------

NUMBER = re.compile(r"(?<![\w.+-])-?\d+(?:\.\d*)?(?:e-?\d+)?(?![\w.])")


def _directive_lines(lines):
    """Indices of the lines after 'problem' that are not blank or comments."""
    return [n for n, s in enumerate(lines) if n > 0 and s.strip()
            and not s.startswith("#")]


@st.composite
def invalid_texts(draw):
    """A valid file with one mutation that makes it invalid by construction."""
    text = draw(st.sampled_from(VALID_TEXTS))
    lines = text.splitlines()
    kind = lines[0].split()[1]
    how = draw(st.sampled_from(["duplicate", "insert", "number", "index"]))
    if how == "duplicate":
        n = draw(st.sampled_from(_directive_lines(lines)))
        lines.insert(draw(st.integers(n + 1, len(lines))), lines[n])
    elif how == "insert":
        roles, dims_line = KIND_ROLES[kind]
        new = draw(st.sampled_from([
            "op Q 1 zero", "vec w 1", dims_line,
            f"op {draw(st.sampled_from(roles))} 9 zero",
        ]))
        lines.insert(draw(st.integers(1, len(lines))), new)
    elif how == "number":
        spots = [(n, m) for n in _directive_lines(lines)
                 for m in NUMBER.finditer(lines[n])]
        n, m = draw(st.sampled_from(spots))
        bad = draw(st.sampled_from(["x", "nan"]))
        lines[n] = lines[n][:m.start()] + bad + lines[n][m.end():]
    else:
        spots = [n for n in _directive_lines(lines)
                 if lines[n].split()[0] in ("entry", "L")]
        if not spots:  # no coupling lines: add one past any grid instead
            lines.append(f"entry {draw(st.sampled_from([0, 9]))} 1 identity")
        else:
            n = draw(st.sampled_from(spots))
            toks = lines[n].split()
            at = draw(st.integers(1, 2 if toks[0] == "entry" else 1))
            toks[at] = str(draw(st.sampled_from([0, 9])))
            lines[n] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invalid_texts())
def test_every_invalid_mutation_exits_one_naming_a_line(fuzz_dir, text):
    path = fuzz_dir / "mutant.prob"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["solve", str(path), "--output-dir", str(fuzz_dir)])
    assert code == 1, text
    msg = err.getvalue()
    assert msg.count("\n") == 1 and re.search(r"line \d+: ", msg), (text, msg)


# -- the catalog and its parameters ------------------------------------------


def test_every_catalog_id_belongs_to_a_family():
    from pdsplit.probfile import _CATALOG

    assert CATALOG_IDS == {cid for table in _CATALOG.values() for cid in table}
    for cid in ("box", "normal_cone_box", "subdiff_l1", "indicator_ball",
                "none", "point_zero"):
        assert cid in CATALOG_IDS


@pytest.mark.parametrize("old, new, pattern", [
    ("c=1", "c=1 d=2", "line 6: scaled_identity: unknown parameter d="),
    ("c=1", "c=1 c=2", "line 6: parameter 'c' given twice"),
    ("lo=-1,-1", "lo=-1,-1,-1", "line 4: normal_cone_box: parameter lo needs"),
    ("c=1", "c=-1", "line 6: scaled_identity: scaled identity needs c >= 0"),
    ("hi=1,1", "hi=1,-2", "line 4: normal_cone_box: box needs lo <= hi"),
    ("op C 1 zero", "op C 1 box lo=0 hi=1", "line 5: catalog id 'box' is not in the Lipschitz operator family"),
    ("op C 1 zero", "op C 1 affine M=inf", "line 5: affine: M must be finite"),
])
def test_operator_parameters_checked_with_op_line(old, new, pattern):
    with pytest.raises(ParseError, match=pattern):
        build_problem(parse_problem(SYSTEM_TEXT.replace(old, new)))


def test_misfit_entry_names_its_line():
    # 'L 1 identity' is line 10: a scalar entry on a 2 x 1 block
    text = PSUM_TEXT.replace("dual_dims 1", "dual_dims 2").replace("vec r 0", "vec r 0 0")
    with pytest.raises(ParseError, match="line 10: entry 1 1 is a multiple of the "
                                         "identity but its block is 2 x 1"):
        build_problem(parse_problem(text))


def test_file_and_coupling_report_a_misfit_alike():
    text = SYSTEM_TEXT.replace("1 0.5\n0 1\n", "1 0.5 2\n0 1 3\n")
    with pytest.raises(ParseError) as from_file:
        build_problem(parse_problem(text))
    with pytest.raises(SignatureError) as from_grid:
        BlockLinearOp([[np.ones((2, 3))]], SpaceSig((2,), (2,)))
    tail = "is 2 x 3 but its block is 2 x 2"
    assert str(from_file.value).endswith("entry 1 1 " + tail)
    assert str(from_grid.value) == "entry (0,0) " + tail


def test_scalar_parameter_fills_the_block():
    # lo=-1 stands for the constant vector (-1, -1) of the 2-dim block,
    # parsed or hand-built as an int
    parsed = parse_problem(SYSTEM_TEXT.replace("lo=-1,-1 hi=1,1", "lo=-1 hi=1"))
    by_hand = parse_problem(SYSTEM_TEXT)
    by_hand.slots["op", "A", 1] = ("normal_cone_box", {"lo": -1, "hi": 1.0})
    for pf in (parsed, by_hand):
        lo = build_problem(pf)[0].A[0].set.lo
        assert lo.dtype == float and np.array_equal(lo, [-1.0, -1.0])


def test_hand_built_nan_parameter_rejected():
    pf = parse_problem(SYSTEM_TEXT)
    pf.slots["op", "B", 1] = ("scaled_identity", {"c": float("nan")})
    with pytest.raises(ParseError, match="line 6: scaled_identity: parameter c is NaN"):
        build_problem(pf)


def test_infinite_box_bounds_accepted():
    text = SYSTEM_TEXT.replace("lo=-1,-1 hi=1,1", "lo=-inf,0 hi=inf,inf")
    prob, _ = build_problem(parse_problem(text))
    np.testing.assert_array_equal(prob.A[0].set.hi, [np.inf, np.inf])


@pytest.mark.parametrize("text, old, new, pattern", [
    (SYSTEM_TEXT, "vec z 0.3 -0.2", "vec z 1e308 0", "line 12: vec z is too large"),
    (SYSTEM_TEXT, "vec r 0 0", "vec r -1e308 0", "line 13: vec r is too large"),
    (MULTIVAR_TEXT, "sqdist a=0", "sqdist a=1e308", "line 8: sqdist: parameter a is too large"),
    (SYSTEM_TEXT, "normal_cone_box lo=-1,-1 hi=1,1", "normal_cone_box lo=-1,-1 hi=1,1e200",
     None),
    (FEASIBILITY_TEXT, "rho=3", "rho=1e308", "line 4: hyperplane: parameter rho is too large"),
    (FEASIBILITY_TEXT, "rho=3", "rho=1e154", None),
    (SYSTEM_TEXT, "normal_cone_box lo=-1,-1 hi=1,1", "indicator_halfspace u=1,0 rho=-1e200",
     "line 4: indicator_halfspace: parameter rho is too large"),
])
def test_a_linear_value_whose_squares_overflow_names_its_line(text, old, new, pattern):
    # z, r, sqdist's a and rho enter the iterate linearly; a box bound does not
    pf = parse_problem(text.replace(old, new, 1))
    if pattern is None:
        build_problem(pf)
        return
    with pytest.raises(ParseError, match=pattern + ": its sum of squares overflows$"):
        build_problem(pf)


def test_kind_partition_checked_with_line():
    text = PSUM_TEXT.replace("k1 0\nk2 0", "k1 1\nk2 0")
    with pytest.raises(ParseError, match="line 5: need k1 <= k2 <= 1"):
        build_problem(parse_problem(text))


def test_op_numbering_without_gaps():
    # common_zero and feasibility count their couplings from the 'op' lines
    text = COMMON_ZERO_TEXT + "op B 9 zero\n"
    with pytest.raises(ParseError, match="line 8: op B 9: 'op B' lines must be numbered"):
        build_problem(parse_problem(text))


def _load(text):
    return build_problem(parse_problem(text))


def _with_nan_lower_bound():
    pf = parse_problem(SYSTEM_TEXT)
    pf.slots["op", "A", 1] = ("normal_cone_box", {"lo": np.array([np.nan, -1.0]), "hi": 1.0})
    return build_problem(pf)


def _system_with(old, new):
    return lambda: _load(SYSTEM_TEXT.replace(old, new, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: ProblemFile("bogus"), "unknown problem kind 'bogus'"),
    (lambda: _load("dim 2\n"), "line 1: file must start with 'problem <kind>'"),
    (_system_with("op C 1 zero", "op C"), "line 5: op needs a role and a catalog id"),
    (_system_with("op C 1 zero", "op C 1"), "line 5: op with an index needs a catalog id"),
    (_system_with("op C 1 zero", "op C 0 zero"), "line 5: op indices start at 1"),
    (_system_with("lo=-1,-1", "lo"), "line 4: malformed parameter 'lo'"),
    (_system_with("op A 1 normal_cone_box lo=-1,-1 hi=1,1", "op A 1 affine M=1,0;0"),
     "line 4: matrix '1,0;0' has ragged rows"),
    (_system_with("entry 1 1 dense", "entry 1"), "line 8: entry needs row, column, and a tag"),
    (_system_with("entry 1 1 dense", "L 1"), "line 8: L needs an index and a tag"),
    (_system_with("entry 1 1 dense\n1 0.5\n0 1\nend", "entry 1 1 dense\nend"),
     "line 8: dense block has no rows"),
    (_system_with("entry 1 1 dense\n1 0.5\n0 1\nend", "entry 1 1 scale"),
     "line 8: entry tag 'scale' is not one of 'zero', 'identity', 'scale <number>', 'dense'"),
    (_system_with("vec r 0 0", "vec"), "line 13: vec needs a name"),
    (lambda: _load(COMMON_ZERO_TEXT.replace("dim 2", "dim 2 2")), "line 2: dim takes one integer"),
    (_system_with("primal_dims 2", "primal_dims 0"), "line 2: primal_dims takes integers >= 1"),
    (lambda: _load(SYSTEM_TEXT + "config gamma\n"),
     "line 14: config takes one of ('gamma', 'epsilon', 'max_iters', 'tol', 'error_eta', "
     "'error_p', 'seed') and a value"),
    (_with_nan_lower_bound, "line 4: normal_cone_box: parameter lo is NaN"),
    (_system_with("dual_dims 2\n", ""), "system problem requires a 'dual_dims' line"),
    (lambda: _load(COMMON_ZERO_TEXT.replace("op B 1", "# ").replace("op B 2", "# ")),
     "missing 'op B 1 ...' declaration"),
    (_system_with("vec z 0.3 -0.2", "vec z 0.3"), "line 12: vec z has 1 components, expected 2"),
], ids=["kind", "no-problem-line", "op-role", "op-id", "op-index", "op-parameter", "ragged-matrix",
        "entry-tag", "L-tag", "dense-empty", "entry-bad-tag", "vec-name", "dim-count",
        "dims-minimum", "config", "nan-array", "missing-dims", "missing-op", "vec-length"])
def test_malformed_files_are_rejected_naming_the_line(make, message):
    with pytest.raises(ParseError) as exc:
        make()
    assert str(exc.value) == message

import numpy as np
import pytest

from pdsplit import FbfConfig
from pdsplit.probfile import (
    CATALOG_IDS,
    KINDS,
    ParseError,
    build_problem,
    parse_problem,
    serialize_problem,
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


def test_round_trip_is_fixed_point():
    for text in (MULTIVAR_TEXT, FEASIBILITY_TEXT, SYSTEM_TEXT):
        pf = parse_problem(text)
        again = parse_problem(serialize_problem(pf))
        assert pf == again
        # serialization itself is stable
        assert serialize_problem(pf) == serialize_problem(again)


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

import numpy as np
import pytest

from pdsplit.cli import CSV_HEADER, main

FEAS_TEXT = """\
problem feasibility
dim 2
op set 1 box lo=0,0 hi=1,1
op set 2 hyperplane u=1,1 rho=3
op phi 1 point_zero
op phi 2 sqnorm omega=1
entry 1 1 identity
entry 2 1 identity
"""


@pytest.fixture
def feas_file(tmp_path):
    path = tmp_path / "relax.prob"
    path.write_text(FEAS_TEXT)
    return path


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" ")
        out[key] = val
    return out


def test_solve_writes_trace_and_summary(feas_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", str(feas_file), "--output-dir", str(out)])
    assert code == 0
    trace = (out / "relax.trace.csv").read_text().splitlines()
    assert trace[0] == CSV_HEADER
    assert len(trace) > 2
    # iter column strictly increasing, residual nonnegative
    iters = [int(row.split(",")[0]) for row in trace[1:]]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    assert all(float(row.split(",")[2]) >= 0.0 for row in trace[1:])
    summary = read_summary(out / "relax.summary")
    assert summary["converged"] == "true"
    assert float(summary["primal_kkt"]) <= 1e-7


def test_solve_exit_two_on_iteration_budget(feas_file, tmp_path):
    code = main(["solve", str(feas_file), "--max-iters", "1",
                 "--output-dir", str(tmp_path / "o2")])
    assert code == 2


def test_solve_exit_one_on_unknown_catalog_id(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("problem common_zero\ndim 1\nop A mystery_op\n")
    assert main(["solve", str(bad)]) == 1
    assert "mystery_op" in capsys.readouterr().err


def test_solve_exit_one_on_out_of_range_entry(tmp_path, capsys):
    bad = tmp_path / "off_grid.prob"
    bad.write_text(FEAS_TEXT.replace("entry 2 1 identity", "entry 5 7 identity"))
    assert main(["solve", str(bad), "--output-dir", str(tmp_path)]) == 1
    assert "line 8: entry 5 7" in capsys.readouterr().err
    assert not (tmp_path / "off_grid.summary").exists()


def test_solve_exit_one_on_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.prob")]) == 1


def test_cli_overrides_beat_file_config(feas_file, tmp_path):
    # a file-level gamma would be used unless the flag overrides it
    text = FEAS_TEXT + "config max_iters 1\n"
    path = tmp_path / "capped.prob"
    path.write_text(text)
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 2
    assert main(["solve", str(path), "--max-iters", "100000",
                 "--output-dir", str(tmp_path)]) == 0


def test_demo_reports_oracle_deviation(tmp_path):
    out = tmp_path / "demo"
    for name, limit in (("twobox", 1e-6), ("legendre", 1e-6),
                        ("boxhalf", 1e-5), ("lasso1d", 1e-6)):
        assert main(["demo", name, "--output-dir", str(out)]) == 0
        summary = read_summary(out / f"{name}.summary")
        assert float(summary["oracle_deviation"]) <= limit


def test_demo_objective_columns_present(tmp_path):
    out = tmp_path / "demo62"
    assert main(["demo", "twobox", "--output-dir", str(out)]) == 0
    rows = (out / "twobox.trace.csv").read_text().splitlines()
    last = rows[-1].split(",")
    assert float(last[5]) == pytest.approx(0.5, abs=1e-6)   # primal_obj
    assert float(last[6]) == pytest.approx(-0.5, abs=1e-6)  # dual_obj
    assert abs(float(last[7])) <= 1e-6                      # gap


def test_demo_unknown_name_lists_catalog(capsys):
    assert main(["demo", "nope"]) == 1
    err = capsys.readouterr().err
    for name in ("twobox", "legendre", "boxhalf", "lasso1d"):
        assert name in err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selftest_inject_fault_fails_norm_bound(capsys):
    assert main(["selftest", "--inject-fault"]) == 1
    captured = capsys.readouterr()
    assert "norm_bound_validity" in captured.err


def test_selftest_deterministic(capsys):
    main(["selftest", "--seed", "7"])
    first = capsys.readouterr().out
    main(["selftest", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_list_catalog(capsys):
    assert main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    for token in ("multivar_min", "indicator_box", "twobox"):
        assert token in out


def test_error_injection_flags(feas_file, tmp_path):
    out = tmp_path / "noisy"
    code = main(["solve", str(feas_file), "--error-eta", "0.1",
                 "--error-p", "2", "--seed", "4", "--max-iters", "2000",
                 "--output-dir", str(out)])
    assert code in (0, 2)
    summary = read_summary(out / "relax.summary")
    assert float(summary["final_residual"]) >= 0.0


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

COMMON_ZERO_TEXT = """\
problem common_zero
dim 1
op A zero
op B 1 zero
op S 1 scaled_identity c=1
"""


@pytest.mark.parametrize("text, line", [
    pytest.param(SYSTEM_TEXT + "op Q 1 zero\n", 14, id="unread-role"),
    pytest.param(SYSTEM_TEXT + "op A 3 zero\n", 14, id="op-index-past-m"),
    pytest.param(SYSTEM_TEXT + "vec w 1 2\n", 14, id="unread-vec"),
    pytest.param(SYSTEM_TEXT + "k1 4\n", 14, id="unread-dims"),
    pytest.param(SYSTEM_TEXT + "op A 1 zero\n", 14, id="duplicate-op"),
    pytest.param(SYSTEM_TEXT + "entry x 1 identity\n", 14, id="entry-index-x"),
    pytest.param(SYSTEM_TEXT + "entry 1 1 scale abc\n", 14, id="scale-abc"),
    pytest.param(SYSTEM_TEXT + "config gamma nan\n", 14, id="config-nan"),
    pytest.param(SYSTEM_TEXT.replace("scaled_identity c=1", "scaled_identity"),
                 6, id="missing-param"),
    pytest.param(SYSTEM_TEXT.replace("c=1", "c=1,2"), 6, id="vector-for-scalar"),
    pytest.param(SYSTEM_TEXT.replace("1 0.5\n0 1\n", "1\n"), 8,
                 id="dense-shape"),
    pytest.param(SYSTEM_TEXT.replace("0 1\n", "0\n"), 10, id="ragged-dense"),
    pytest.param(COMMON_ZERO_TEXT + "entry 5 7 scale 3\n", 6,
                 id="common-zero-entry"),
])
def test_solve_rejects_malformed_file_naming_its_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.prob"
    bad.write_text(text)
    assert main(["solve", str(bad), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"bad.prob: line {line}: " in err
    assert not (tmp_path / "bad.summary").exists()


def test_list_catalog_names_every_catalog_id(capsys):
    from pdsplit.probfile import CATALOG_IDS

    assert main(["list-catalog"]) == 0
    listed = {line.strip() for line in capsys.readouterr().out.splitlines()}
    assert CATALOG_IDS <= listed


def test_multivar_objectives_with_quadratic_h(tmp_path):
    # dim 3 with a sqdist h: the dual has a closed form, so all three
    # objective columns are written and the gap closes
    text = """\
problem multivar_min
primal_dims 3
dual_dims 3
op f 1 indicator_box lo=0 hi=1
op h 1 sqdist a=2,-1,0.5
op g 1 l1 weight=0.3
op ell 1 none
entry 1 1 identity
vec z 0.5 0.5 0.5
vec r 0.1 0.1 0.1
"""
    path = tmp_path / "quad.prob"
    path.write_text(text)
    assert main(["solve", str(path), "--tol", "1e-10",
                 "--output-dir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "quad.summary")
    assert abs(float(summary["gap"])) <= 1e-8
    assert float(summary["primal_obj"]) == pytest.approx(
        -float(summary["dual_obj"]), abs=1e-8)

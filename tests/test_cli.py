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

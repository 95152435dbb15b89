import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdsplit import (
    FbfConfig,
    FeasibilityRelaxation,
    Hyperplane,
    SquaredNorm,
    cli,
    evaluate_objectives,
    relaxation_objective,
    solve_parallel_sum,
    system,
)
from pdsplit.cli import CSV_HEADER, main
from pdsplit.demos import DEMO_NAMES, get_demo
from pdsplit.fbf import DEFAULT_EPSILON
from pdsplit.probfile import (
    _CATALOG,
    CATALOG_IDS,
    CONFIG_KEYS,
    KINDS,
    build_problem,
    parse_problem,
)

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
    assert summary["stop_reason"] == "converged"
    assert float(summary["primal_kkt"]) <= 1e-7


def test_solve_exit_two_on_iteration_budget(feas_file, tmp_path):
    code = main(["solve", str(feas_file), "--max-iters", "1",
                 "--output-dir", str(tmp_path / "o2")])
    assert code == 2
    assert read_summary(tmp_path / "o2" / "relax.summary")["stop_reason"] == "max_iters"


TWOBOX_TEXT = """\
problem system
primal_dims 1 1
dual_dims 1
op A 1 normal_cone_box lo=2 hi=3
op A 2 normal_cone_box lo=0 hi=1
op C 1 zero
op C 2 zero
op B 1 scaled_identity c=1
op Dinv 1 zero
entry 1 1 scale 1
entry 1 2 scale -1
vec z 0 0
vec r 0
"""


def test_solve_summary_reports_beta(tmp_path):
    # L = [Id, -Id] has ||L||^2 = 2 and C, Dinv are zero: beta = sqrt(2)
    path = tmp_path / "twobox.prob"
    path.write_text(TWOBOX_TEXT)
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 0
    beta = float(read_summary(tmp_path / "twobox.summary")["beta"])
    assert beta == np.sqrt(2.0)
    gamma = float((tmp_path / "twobox.trace.csv").read_text().splitlines()[1].split(",")[1])
    assert gamma == (1.0 - DEFAULT_EPSILON) / beta


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


def test_solve_exit_one_on_a_file_that_is_not_utf8_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_bytes(b"problem system\n\xff\xfe\n")
    assert main(["solve", str(bad), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 2: not UTF-8: invalid start byte\n"
    assert sorted(tmp_path.iterdir()) == [bad]


def test_an_unusable_output_dir_is_an_error_before_the_solve(tmp_path, capsys,
                                                               monkeypatch):
    def no_solve(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(system, "fbf_solve", no_solve)
    target = tmp_path / "file"
    target.write_text("kept")
    assert main(["demo", "twobox", "--output-dir", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: demo twobox: cannot create output directory {target}: ")
    assert sorted(tmp_path.iterdir()) == [target] and target.read_text() == "kept"


@pytest.mark.parametrize("text", [TWOBOX_TEXT, get_demo("twobox").text],
                         ids=["system", "multivar_min"])
def test_a_decoupled_file_solves_at_beta_one(tmp_path, text):
    # with no coupling and no Lipschitz term Q is constant: every positive
    # number bounds its Lipschitz constant, and beta is 1
    coupling = "entry 1 1 scale 1\nentry 1 2 scale -1\n"
    assert coupling in text
    path = tmp_path / "decoupled.prob"
    path.write_text(text.replace(coupling, "").replace("vec r 0\n", "vec r 2\n"))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "decoupled.summary")
    assert summary["beta"] == "1"
    assert float(summary["primal_kkt"]) <= 1e-6 and float(summary["dual_kkt"]) <= 1e-6
    gamma = float((tmp_path / "decoupled.trace.csv").read_text().splitlines()[1].split(",")[1])
    assert gamma == 1.0 - DEFAULT_EPSILON


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


# each demo's summary keys in order, by the objectives its kind evaluates:
# both sides and the gap for multivar_min, the relaxation's value for
# feasibility, none for common_zero
_RUN_KEYS = ["converged", "stop_reason", "iterations", "beta", "wall_time_s",
             "final_residual", "primal_kkt", "dual_kkt"]
_OBJECTIVE_KEYS = {"twobox": ["primal_obj", "dual_obj", "gap"], "legendre": [],
                   "boxhalf": ["primal_obj"], "lasso1d": ["primal_obj", "dual_obj", "gap"]}


def _g(x):
    return format(float(x), ".17g")


def _expected_outputs(name, overrides):
    """The demo's trace and summary text, wall_time_s left out, formatted
    here from a solve of its own under the same settings."""
    demo = get_demo(name)
    pf = parse_problem(demo.text)
    prob, solver = build_problem(pf)
    with np.errstate(over="ignore", invalid="ignore"):
        report = solver(prob, cli.make_config(pf.config, SimpleNamespace(**overrides)))
        x, want = report.primal.flat(), demo.oracle(prob)
        objectives = {"primal_obj": None, "dual_obj": None, "gap": None}
        if pf.kind == "multivar_min":
            p, d = evaluate_objectives(prob, report.primal, report.dual)
            objectives.update(primal_obj=p, dual_obj=d, gap=p + d)
        elif pf.kind == "feasibility":
            objectives["primal_obj"] = relaxation_objective(prob, x)
    trace = report.trace
    n, gamma, resid = trace.rows[-1]
    final = [_g(v) for v in report.kkt] + ["" if v is None else _g(v)
                                          for v in objectives.values()]
    rows = ["iter,gamma,fixedpoint_residual,primal_kkt,dual_kkt,primal_obj,dual_obj,gap"]
    rows += [f"{i},{_g(g)},{_g(r)},,,,," for i, g, r in trace.rows[:-1]]
    rows.append(",".join([str(n), _g(gamma), _g(resid)] + final))
    summary = [f"converged {str(report.converged).lower()}",
               f"stop_reason {trace.stop_reason}", f"iterations {len(trace.rows)}",
               f"beta {_g(trace.chi)}", f"final_residual {_g(resid)}",
               f"primal_kkt {_g(report.kkt[0])}", f"dual_kkt {_g(report.kkt[1])}"]
    summary += [f"{key} {_g(v)}" for key, v in objectives.items() if v is not None]
    summary += ["solution " + ",".join(map(_g, x)), "oracle " + ",".join(map(_g, want)),
                f"oracle_deviation {_g(np.linalg.norm(x - want))}"]
    return "\n".join(rows) + "\n", "\n".join(summary) + "\n"


@pytest.mark.parametrize("name", DEMO_NAMES)
@pytest.mark.parametrize("flags, overrides, code", [
    ([], {}, 0), (["--max-iters", "3"], {"max_iters": 3}, 2),
    (["--error-eta", "1e200"], {"error_eta": 1e200}, 1),
], ids=["default", "max-iters-3", "diverged"])
def test_demo_outputs_are_pinned_as_whole_files(tmp_path, name, flags, overrides, code):
    assert main(["demo", name, "--output-dir", str(tmp_path)] + flags) == code
    want_trace, want_summary = _expected_outputs(name, overrides)
    assert (tmp_path / f"{name}.trace.csv").read_bytes() == want_trace.encode()
    lines = (tmp_path / f"{name}.summary").read_bytes().decode().splitlines(keepends=True)
    keys = [line.partition(" ")[0] for line in lines]
    assert keys == _RUN_KEYS + _OBJECTIVE_KEYS[name] + ["solution", "oracle", "oracle_deviation"]
    assert np.isfinite(float(lines[4].split()[1]))                      # wall_time_s
    assert "".join(lines[:4] + lines[5:]) == want_summary
    # the last row's five last columns are the summary's entries of their names
    summary = dict(line.split() for line in lines)
    last = (tmp_path / f"{name}.trace.csv").read_text().splitlines()[-1].split(",")
    assert last[3:] == [summary.get(key, "") for key in CSV_HEADER.split(",")[3:]]


def test_a_feasibility_objective_without_a_closed_form_is_left_out(tmp_path):
    # an omega per coordinate on a hyperplane: the summary and the trace's
    # last row carry no primal_obj rather than the penalty at the projection
    prob = FeasibilityRelaxation(2, [Hyperplane([1.0, 1.0], 0.0)],
                                 [SquaredNorm([1.0, 100.0])], [1.0])
    report = solve_parallel_sum(prob, FbfConfig())
    cli.write_outputs("omega", tmp_path, "feasibility", prob, report, 0.5)
    summary = read_summary(tmp_path / "omega.summary")
    assert list(summary)[-2:] == ["primal_kkt", "dual_kkt"]
    assert (tmp_path / "omega.trace.csv").read_text().splitlines()[-1].endswith(",,,")


def test_demo_unknown_name_lists_catalog(capsys):
    assert main(["demo", "nope"]) == 1
    err = capsys.readouterr().err
    for name in ("twobox", "legendre", "boxhalf", "lasso1d"):
        assert name in err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selftest_inject_fault_fails_norm_bound(monkeypatch, capsys):
    import pdsplit.blocks
    from pdsplit import selftest

    # an understated norm bound is caught by the bound check alone
    certified = pdsplit.blocks.lambda_conservative
    monkeypatch.setattr(pdsplit.blocks, "lambda_conservative", lambda L: 0.5 * certified(L))
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "failed properties: norm_bound_validity\n"
    assert re.search(r"^norm_bound_validity +FAIL  max bound excess ", captured.out, re.M)
    monkeypatch.undo()

    # a check that raises is a failed row, and the later checks still run
    def broken(rng):
        raise RuntimeError("broken check")

    monkeypatch.setattr(selftest, "_CHECKS", tuple(
        (name, broken if name == "norm_bound_validity" else fn)
        for name, fn in selftest._CHECKS))
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "failed properties: norm_bound_validity\n"
    assert re.search(r"^norm_bound_validity +FAIL  raised RuntimeError: broken check$",
                     captured.out, re.M)
    assert captured.out.count("PASS") == len(selftest._CHECKS) - 1


def test_selftest_a_wrong_prox_fails_the_moreau_row(monkeypatch, capsys):
    from pdsplit import SquaredNorm

    # an affine map in place of the prox is firmly nonexpansive: the
    # Fenchel-Young equality of the Moreau row is what catches it
    monkeypatch.setattr(SquaredNorm, "prox", lambda self, gamma, x: 0.3 * np.asarray(x) + 1.7)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "failed properties: moreau_identity\n"
    assert re.search(r"^moreau_identity +FAIL  ", captured.out, re.M)


def test_selftest_deterministic(capsys):
    main(["selftest", "--seed", "7"])
    first = capsys.readouterr().out
    main(["selftest", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_selftest_rejects_a_negative_seed_with_one_error_line(capsys):
    assert main(["selftest", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: selftest: seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("argv, prog", [
    (["demo", "twobox", "--max-iters", "abc"], "pdsplit demo"),
    (["selftest", "--seed", "x"], "pdsplit selftest"),
    (["bogus"], "pdsplit"),
    (["solve"], "pdsplit solve"),
], ids=" ".join)
def test_a_usage_error_exits_one_with_one_error_line(capsys, argv, prog):
    # exit code 2 is a run that hit its budget, so bad flags are invalid input
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {prog}: ")


def test_list_catalog(capsys):
    assert main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    for token in ("multivar_min", "indicator_box", "twobox"):
        assert token in out


def test_the_module_entry_point_exits_as_main_returns(tmp_path):
    # python3 -m pdsplit.cli, as the README documents it, from the source tree
    src = Path(__file__).resolve().parents[1] / "src"

    def run(*args):
        return subprocess.run([sys.executable, "-m", "pdsplit.cli", *args],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})

    listed = run("list-catalog")
    assert listed.returncode == 0 and "problem kinds:" in listed.stdout
    missing = run("solve", str(tmp_path / "missing.prob"), "--output-dir", str(tmp_path))
    assert missing.returncode == 1 and missing.stderr.startswith("error: ")


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
    pytest.param(SYSTEM_TEXT + "vec w 1 2\nop Q 1 zero\n", 14, id="unread-vec-and-role"),
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
    pytest.param(SYSTEM_TEXT + "config epsilon 2\n", 14, id="config-epsilon-range"),
    pytest.param(SYSTEM_TEXT + "config max_iters 0\n", 14, id="config-max-iters-0"),
    pytest.param(SYSTEM_TEXT + "config error_p 0.5\n", 14, id="config-error-p-without-eta"),
    pytest.param(SYSTEM_TEXT + "config error_eta 0\nconfig error_p 1\n", 15,
                 id="config-error-p-with-zero-eta"),
    pytest.param(COMMON_ZERO_TEXT + "config epsilon 0.5\n", 6,
                 id="config-epsilon-above-beta-bound"),
    pytest.param(SYSTEM_TEXT + "config seed -1\n", 14, id="config-negative-seed"),
    pytest.param(SYSTEM_TEXT + "config error_eta 0.1\nconfig seed -1\n", 15,
                 id="config-negative-seed-with-eta"),
    pytest.param(get_demo("twobox").text.replace("op ell 1 none", "op ell 1 sqnorm omega=1e-320"),
                 9, id="sqnorm-omega-below-range"),
    pytest.param(get_demo("twobox").text.replace("op h 1 zero", "op h 1 sqnorm omega=1e308"),
                 6, id="sqnorm-omega-above-range"),
])
def test_solve_rejects_malformed_file_naming_its_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.prob"
    bad.write_text(text)
    assert main(["solve", str(bad), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"bad.prob: line {line}: " in err
    assert not (tmp_path / "bad.summary").exists()


def test_config_flag_overrides_name_no_line(tmp_path, capsys):
    # the bad value comes from the flag, so no file line is blamed
    path = tmp_path / "ok.prob"
    path.write_text(SYSTEM_TEXT + "config epsilon 0.1\n")
    assert main(["solve", str(path), "--epsilon", "2",
                 "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line " not in err and "epsilon" in err


@pytest.mark.parametrize("flags", [
    ["--gamma", "5"], ["--epsilon", "2"], ["--epsilon", "0.6"],
    ["--max-iters", "0"], ["--error-eta", "1e308"], ["--error-eta", "inf"],
    ["--error-p", "0.5"],
    ["--seed", "-1"], ["--seed", "-3", "--error-eta", "0.1"],
], ids=lambda f: " ".join(f))
def test_demo_bad_flags_exit_one_with_one_error_line(tmp_path, capsys, flags):
    assert main(["demo", "twobox", *flags, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: demo twobox: ")


def test_demo_whose_residual_overflows_is_an_error_not_convergence(tmp_path, capsys):
    # errors of norm 1e200 square past the largest float: the residual is
    # inf, which must not pass the relative stop test inf <= tol * inf
    assert main(["demo", "twobox", "--error-eta", "1e200",
                 "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: demo twobox: ")
    assert "diverged" in err


def test_solve_divergence_writes_partial_outputs(feas_file, tmp_path, capsys):
    out = tmp_path / "div"
    assert main(["solve", str(feas_file), "--error-eta", "1e308",
                 "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "diverged at iteration 0" in err
    assert "Traceback" not in err
    trace = (out / "relax.trace.csv").read_text().splitlines()
    assert trace[0] == CSV_HEADER and [row.split(",")[0] for row in trace[1:]] == ["0"]
    summary = read_summary(out / "relax.summary")
    assert summary["stop_reason"] == "diverged" and summary["converged"] == "false"
    assert summary["iterations"] == "1"


def test_list_catalog_names_every_catalog_id(capsys):
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


def test_multivar_gap_is_finite_with_an_orthant_box(tmp_path):
    # f is the indicator of (-inf, 1] x [0, inf): its support function meets
    # u_j = 0 (or a round-off residue) against an infinite bound, which used
    # to make the dual objective and the gap inf or NaN
    text = """\
problem multivar_min
primal_dims 2
dual_dims 2
op f 1 indicator_box lo=-inf,0 hi=1,inf
op h 1 zero
op g 1 sqdist a=0.5,2
op ell 1 none
entry 1 1 identity
vec z 0 0
vec r 0 0
"""
    path = tmp_path / "orthant.prob"
    path.write_text(text)
    assert main(["solve", str(path), "--tol", "1e-10",
                 "--output-dir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "orthant.summary")
    assert abs(float(summary["gap"])) <= 1e-8
    assert abs(float(summary["dual_obj"])) <= 1e-8


AFFINE_TEXT = SYSTEM_TEXT.replace(
    "op A 1 normal_cone_box lo=-1,-1 hi=1,1", "op A 1 affine M=2,1;-1,2 b=1,0"
).replace("op C 1 zero", "op C 1 affine M=1")


def test_solve_affine_operators_from_a_file(tmp_path):
    path = tmp_path / "affine.prob"
    path.write_text(AFFINE_TEXT)
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "affine.summary")
    assert float(summary["primal_kkt"]) <= 1e-7 and float(summary["dual_kkt"]) <= 1e-7


@pytest.mark.parametrize("old, new, message", [
    ("M=2,1;-1,2", "M=2,1,0;-1,2,0", "line 4: affine: parameter M needs shape (2, 2)"),
    ("M=1", "M=1 b=1,2,3", "line 5: affine: parameter b needs shape (2,)"),
    ("M=2,1;-1,2", "M=-1,0;0,1",
     "line 4: affine: M + M^T must be positive semidefinite"),
], ids=["M-shape", "b-shape", "M-not-monotone"])
def test_solve_rejects_bad_affine_parameters(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.prob"
    path.write_text(AFFINE_TEXT.replace(old, new, 1))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("old, new, message", [
    ("op A 1 normal_cone_box lo=-1,-1 hi=1,1", "op A 1 affine M=inf",
     "line 4: affine: M must be finite"),
    ("op A 1 normal_cone_box lo=-1,-1 hi=1,1", "op A 1 affine M=1 b=0,inf",
     "line 4: affine: b must be finite"),
    ("op C 1 zero", "op C 1 scaled_identity c=inf",
     "line 5: scaled_identity: scaled identity map needs c >= 0 and finite"),
    ("op C 1 zero", "op C 1 affine M=inf", "line 5: affine: M must be finite"),
    ("op B 1 scaled_identity c=1", "op B 1 scaled_identity c=inf",
     "line 6: scaled_identity: scaled identity needs c >= 0 and finite"),
    ("op B 1 scaled_identity c=1", "op B 1 subdiff_l1 weight=inf",
     "line 6: subdiff_l1: l1 weight must be nonnegative and finite"),
    ("op B 1 scaled_identity c=1", "op B 1 subdiff_sqnorm omega=inf",
     "line 6: subdiff_sqnorm: omega must be positive and finite"),
    ("op Dinv 1 zero", "op Dinv 1 affine M=1 b=-inf",
     "line 7: affine: b must be finite"),
    ("0 1\nend", "0 inf\nend", "line 8: entry 1 1 is not finite"),
    ("vec z 0.3 -0.2", "vec z inf -0.2", "line 12: vec z must be finite"),
    ("vec r 0 0", "vec r 0 -inf", "line 13: vec r must be finite"),
    ("lo=-1,-1 hi=1,1", "lo=-1,inf hi=1,inf",
     "line 4: normal_cone_box: box needs lo <= hi"),
], ids=["A-affine-M", "A-affine-b", "C-scaled", "C-affine-M", "B-scaled", "B-l1",
        "B-sqnorm", "Dinv-affine-b", "entry", "vec-z", "vec-r", "box-empty"])
def test_solve_rejects_non_finite_constants_naming_the_line(tmp_path, capsys, old, new,
                                                            message):
    # an infinite constant used to slip through: M=inf made every resolvent
    # 0 and the run "converged", c=inf failed later without naming a line
    path = tmp_path / "inf.prob"
    path.write_text(SYSTEM_TEXT.replace(old, new, 1))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not (tmp_path / "inf.summary").exists()


# per config key: a valid value and one its setting rejects
CONFIG_VALUES = {"gamma": ("0.25", "-1"), "epsilon": ("0.05", "2"),
                 "max_iters": ("77", "0"), "tol": ("1e-07", "-1"),
                 "error_eta": ("0.5", "-1"), "error_p": ("3", "1"),
                 "seed": ("5", "-1")}


def _setting(cfg, setting):
    """The value a config setting reached: an FbfConfig field or an argument
    of its error schedule."""
    return getattr(cfg, setting) if hasattr(cfg, setting) else getattr(cfg.errors, setting)


def _flags(monkeypatch, argv):
    """The parsed arguments of a solve command line."""
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args) or 0)
    main(["solve", "any.prob", *argv])
    return seen[0]


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_config_line_and_flag_reach_the_same_setting(monkeypatch, key):
    cast, setting = CONFIG_KEYS[key]
    value = CONFIG_VALUES[key][0]
    # a nonzero eta keeps the error schedule, so that its arguments can be read
    eta = {} if key == "error_eta" else {"error_eta": 0.1}
    pf = parse_problem(SYSTEM_TEXT + f"config {key} {value}\n")
    from_file = cli.make_config({**eta, **pf.config}, None)
    args = _flags(monkeypatch, ["--" + key.replace("_", "-"), value])
    from_flag = cli.make_config(eta, args)
    assert _setting(from_file, setting) == _setting(from_flag, setting) == cast(value)


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_invalid_config_value_names_its_line(tmp_path, capsys, key):
    path = tmp_path / "bad.prob"
    path.write_text(SYSTEM_TEXT + f"config {key} {CONFIG_VALUES[key][1]}\n")
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad.prob: line 14: " in err


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_help_lists_one_flag_per_config_key(capsys, key):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    options = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
    assert options.count("--" + key.replace("_", "-")) == 1
    assert len(options) == len(CONFIG_KEYS) + 1         # and --output-dir


@pytest.mark.parametrize("new, message", [
    ("op A 1 normal_cone_hyperplane u=inf,1 rho=0",
     "line 4: normal_cone_hyperplane: hyperplane needs a finite rho"),
    ("op A 1 normal_cone_hyperplane u=1,1 rho=-inf",
     "line 4: normal_cone_hyperplane: hyperplane needs a finite rho"),
    ("op A 1 indicator_halfspace u=1,inf rho=0",
     "line 4: indicator_halfspace: halfspace needs a finite rho"),
    ("op A 1 normal_cone_ball center=inf,0 radius=1",
     "line 4: normal_cone_ball: ball needs a finite center"),
    ("op A 1 normal_cone_point c=-inf,0", "line 4: normal_cone_point: point needs a finite c"),
    ("op A 1 subdiff_sqdist a=inf", "line 4: subdiff_sqdist: quadratic distance needs a finite a"),
], ids=["hyperplane-u", "hyperplane-rho", "halfspace-u", "ball-center", "point-c", "sqdist-a"])
def test_solve_rejects_non_finite_set_parameters_naming_the_line(tmp_path, capsys, new,
                                                                 message):
    path = tmp_path / "inf.prob"
    path.write_text(SYSTEM_TEXT.replace("op A 1 normal_cone_box lo=-1,-1 hi=1,1", new))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("entry", ["entry 1 1 scale 1e200", "entry 1 1 dense\n1e200 0.5\n0 1\nend"])
def test_solve_names_the_entry_whose_norm_bound_overflows(tmp_path, capsys, entry):
    # used to fail with "epsilon 0.01 must be below 1/(chi+1) = 0.0", which
    # blamed epsilon and named no line
    path = tmp_path / "huge.prob"
    path.write_text(SYSTEM_TEXT.replace("entry 1 1 dense\n1 0.5\n0 1\nend", entry))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "line 8: entry 1 1 is too large: the bound on ||L||^2 overflows" in err
    assert not (tmp_path / "huge.summary").exists()


@pytest.mark.parametrize("text, old, new, message", [
    (SYSTEM_TEXT, "vec z 0.3 -0.2", "vec z 1e308 0", "line 12: vec z "),
    (SYSTEM_TEXT, "vec r 0 0", "vec r 1e308 0", "line 13: vec r "),
    (SYSTEM_TEXT, "vec z 0.3 -0.2", "vec z 1e154 1e154", "line 12: vec z "),
    (get_demo("twobox").text, "sqdist a=0", "sqdist a=1e308", "line 8: sqdist: parameter a "),
    (FEAS_TEXT, "rho=3", "rho=1e308", "line 4: hyperplane: parameter rho "),
], ids=["vec-z", "vec-r", "vec-z-sum", "sqdist-a", "hyperplane-rho"])
def test_solve_names_the_line_of_a_linear_value_whose_squares_overflow(tmp_path, capsys, text,
                                                                       old, new, message):
    # z, r, sqdist's a and rho enter the iterate linearly, so the first
    # iteration's norm overflowed, and the run ended "diverged at iteration
    # 0" or ran to its budget, naming no line; 1e154 fits, but not twice
    path = tmp_path / "huge.prob"
    path.write_text(text.replace(old, new, 1))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
    assert message + "is too large: its sum of squares overflows" in err
    assert not (tmp_path / "huge.summary").exists()


def test_a_large_box_bound_still_solves(tmp_path):
    # a bound enters no iterate linearly: the box holds the solution
    path = tmp_path / "wide.prob"
    path.write_text(get_demo("twobox").text.replace("lo=0 hi=1", "lo=-1e200 hi=1"))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 0
    assert read_summary(tmp_path / "wide.summary")["stop_reason"] == "converged"


def test_a_problem_with_beta_above_99_solves_at_default_settings(tmp_path):
    # the default epsilon is min(1e-2, 1/(2(beta+1))); a fixed 1e-2 refused
    # every beta >= 99 with "epsilon 0.01 must be below 1/(chi+1)"
    path = tmp_path / "scaled.prob"
    path.write_text("problem system\nprimal_dims 1\ndual_dims 1\n"
                    "op A 1 normal_cone_box lo=2 hi=3\nop C 1 zero\n"
                    "op B 1 scaled_identity c=1\nop Dinv 1 zero\n"
                    "entry 1 1 scale 200\nvec z 0\nvec r 0\n")
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 0
    summary = (tmp_path / "scaled.summary").read_text()
    assert "stop_reason converged\n" in summary and "beta 200\n" in summary


PSUM_TEXT = """\
problem parallel_sum
dim 1
dual_dims 1 1
k1 2
k2 2
op A normal_cone_box lo=0 hi=1
op C zero
op B 1 normal_cone_box lo=0 hi=1
op B 2 normal_cone_box lo=0 hi=1
op S 1 scaled_identity c=1
op S 2 scaled_identity c=1
L 1 identity
L 2 identity
vec r 0 0
"""


@pytest.mark.parametrize("text, old, new, message", [
    (PSUM_TEXT, "L 2 identity", "L 2 scale 1e200", "line 13: entry 2 1 "),
    (FEAS_TEXT, "entry 2 1 identity", "entry 2 1 scale 1e200", "line 8: entry 2 1 "),
], ids=["parallel_sum", "feasibility"])
def test_a_lifted_coupling_names_the_line_whose_norm_bound_overflows(tmp_path, capsys, text,
                                                                     old, new, message):
    # the lifted grid is built at solve time, and its cell (k, 0) is the
    # file's L k+1; this used to name the 0-based cell "(1,0)" and no line
    path = tmp_path / "huge.prob"
    path.write_text(text.replace(old, new))
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message + "is too large: the bound on ||L||^2 overflows" in err
    assert not (tmp_path / "huge.summary").exists()


def test_an_infinite_tol_is_rejected_naming_its_line(tmp_path, capsys):
    # every finite residual is <= inf, so the run used to "converge" at once
    path = tmp_path / "lax.prob"
    path.write_text(SYSTEM_TEXT + "config tol inf\n")
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"error: {path}: line 14: residual_tol must be "
                                       "finite and nonnegative, got inf\n")
    assert main(["demo", "twobox", "--tol", "inf", "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("error: demo twobox: residual_tol must be finite "
                                       "and nonnegative, got inf\n")


# -- the demo files, mutated -------------------------------------------------

# a number of a directive: an index, a size, a parameter, a component, a scale
NUMBER = re.compile(r"(?<![\w.+-])-?\d+(?:\.\d*)?(?:e-?\d+)?(?![\w.])")
SIZE_LINES = ("primal_dims", "dual_dims", "dim", "k1", "k2")


@st.composite
def mutated_demos(draw):
    """The lines of a demo file with one mutation, and the 1-based line the
    mutation puts at fault: the changed line or the repeated copy, None for
    a dropped line.  Sizes only shrink to 0 or below, so no mutant
    allocates more than its demo."""
    lines = get_demo(draw(st.sampled_from(DEMO_NAMES))).text.splitlines()
    how = draw(st.sampled_from(["number", "drop", "repeat"]))
    if how == "number":
        n, m = draw(st.sampled_from([(n, m) for n, line in enumerate(lines)
                                     for m in NUMBER.finditer(line)]))
        values = ["0", "-1"]
        if lines[n].split()[0] not in SIZE_LINES:
            values += ["inf", "-inf", "nan", "1e308", "-1e308", repr(-float(m.group()))]
        lines[n] = lines[n][:m.start()] + draw(st.sampled_from(values)) + lines[n][m.end():]
        return lines, n + 1
    n = draw(st.integers(0, len(lines) - 1))
    if how == "drop":
        del lines[n]
        return lines, None
    at = draw(st.integers(n + 1, len(lines)))
    lines.insert(at, lines[n])
    return lines, at + 1


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_demos())
def test_a_mutated_demo_file_ends_with_an_exit_code(fuzz_dir, mutant):
    lines, fault = mutant
    path = fuzz_dir / "mutant.prob"
    msg = solve_ends_with_an_exit_code(path, "\n".join(lines) + "\n")
    head = f"error: {path}: "
    if fault is not None and msg and not msg.startswith(head + "diverged at iteration"):
        assert msg.startswith(f"{head}line {fault}: "), (lines, msg)


def solve_ends_with_an_exit_code(path, text):
    """Write text to path and solve it in-process for at most 200
    iterations: the exit code is 0, 1 or 2; on 1 stderr is one error line,
    returned; on 0 the summary's residuals are finite."""
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["solve", str(path), "--max-iters", "200",
                     "--output-dir", str(path.parent)])
    assert code in (0, 1, 2), text
    if code == 1:
        msg = err.getvalue()
        assert msg.count("\n") == 1 and msg.startswith(f"error: {path}: "), (text, msg)
        return msg
    if code == 0:
        summary = read_summary(path.with_suffix(".summary"))
        for key in ("final_residual", "primal_kkt", "dual_kkt"):
            assert np.isfinite(float(summary[key])), (text, summary)
    return None


# -- whole problem files, generated ------------------------------------------

# the roles of each kind: (role, family, blocks), the family a catalog
# family of probfile or, for a partitioned role, one per part (k < k1,
# k1 <= k < k2, k >= k2); blocks is "primal", "dual" or None for one op
MONO, LIP, FN, SMOOTH = ("monotone operator", "Lipschitz operator", "convex function",
                         "smooth function")
ROLES = {
    "system": [("A", MONO, "primal"), ("C", LIP, "primal"), ("B", MONO, "dual"),
               ("Dinv", LIP, "dual")],
    "multivar_min": [("f", FN, "primal"), ("h", SMOOTH, "primal"), ("g", FN, "dual"),
                     ("ell", "ell coupling", "dual")],
    "parallel_sum": [("A", MONO, None), ("C", LIP, None), ("B", MONO, "dual"),
                     ("S", (MONO, LIP, LIP), "dual")],
    "univar_min": [("f", FN, None), ("h", SMOOTH, None), ("g", FN, "dual"),
                   ("phi", (FN, SMOOTH, "strongly convex function"), "dual")],
    "common_zero": [("A", MONO, None), ("B", MONO, "dual"), ("S", MONO, "dual")],
    "feasibility": [("set", "convex set", "dual"), ("phi", "feasibility penalty", "dual")],
}
NUMS = st.integers(-8, 8).map(lambda n: n / 4)
POSITIVE = st.integers(1, 8).map(lambda n: n / 4)


def _numbers(draw, d):
    return [repr(float(t)) for t in draw(st.lists(NUMS, min_size=d, max_size=d))]


def _vector(draw, d):
    """d numbers as one parameter value, or one number for all of them."""
    vals = _numbers(draw, d)
    return ",".join(vals) if len(set(vals)) > 1 else vals[0]


def _matrix(rows):
    return ";".join(",".join(repr(float(t)) for t in row) for row in rows)


def _monotone_matrix(draw, d):
    """G G^T plus a skew part: M + M^T is positive semidefinite."""
    G, S = (np.array(draw(st.lists(st.integers(-1, 1), min_size=d * d, max_size=d * d)),
                     dtype=float).reshape(d, d) for _ in range(2))
    return _matrix(G @ G.T + S - S.T)


def _box(draw, d):
    lo = draw(st.lists(NUMS, min_size=d, max_size=d))
    hi = [t + draw(POSITIVE) for t in lo]
    if draw(st.booleans()):
        hi[draw(st.integers(0, d - 1))] = np.inf
    return {"lo": ",".join(map(repr, lo)), "hi": ",".join(map(repr, hi))}


def _cut(draw, d):
    u = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any))
    return {"u": ",".join(map(repr, map(float, u))), "rho": repr(draw(NUMS))}


def _affine(draw, d):
    params = {"M": _monotone_matrix(draw, d)}
    if draw(st.booleans()):
        params["b"] = _vector(draw, d)
    return params


# the parameters of each catalog id, after its "subdiff_", "normal_cone_"
# or "indicator_" prefix, for a block of size d
PARAMS = {
    "zero": lambda draw, d: {}, "none": lambda draw, d: {},
    "point_zero": lambda draw, d: {},
    "box": _box, "halfspace": _cut, "hyperplane": _cut,
    "ball": lambda draw, d: {"center": _vector(draw, d), "radius": repr(draw(POSITIVE))},
    "point": lambda draw, d: {"c": _vector(draw, d)},
    "l1": lambda draw, d: {"weight": repr(draw(POSITIVE))} if draw(st.booleans()) else {},
    "sqdist": lambda draw, d: {"a": _vector(draw, d)},
    "sqnorm": lambda draw, d: {"omega": repr(draw(POSITIVE))},
    "scaled_identity": lambda draw, d: {"c": repr(draw(POSITIVE))},
    "affine": _affine,
}


def _base_id(cid):
    return re.sub(r"^(subdiff_|normal_cone_|indicator_)", "", cid)


def _op_line(draw, role, idx, family, d):
    cid = draw(st.sampled_from(sorted(_CATALOG[family])))
    params = PARAMS[_base_id(cid)](draw, d)
    head = f"op {role}" if idx is None else f"op {role} {idx + 1}"
    return " ".join([head, cid] + [f"{k}={v}" for k, v in params.items()])


def _entry_lines(draw, head, d_out, d_in):
    """The lines of one coupling entry mapping a block of size d_in to one
    of size d_out, none for an absent (zero) entry; only a dense one when
    the sizes differ."""
    tags = ["absent", "zero", "identity", "scale", "dense"] if d_out == d_in else ["dense"]
    tag = draw(st.sampled_from(tags))
    if tag == "absent":
        return []
    if tag == "scale":
        return [f"{head} scale {draw(NUMS)!r}"]
    if tag != "dense":
        return [f"{head} {tag}"]
    rows = [" ".join(_numbers(draw, d_in)) for _ in range(d_out)]
    return [f"{head} dense", *rows, "end"]


SIZES = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@st.composite
def problem_files(draw, kind):
    """A valid problem file of the kind: block sizes up to 3, an op of each
    role's catalog family per block with valid parameters, couplings,
    vectors and config lines."""
    lines = [f"problem {kind}"]
    if kind in ("system", "multivar_min"):
        dp, dd = draw(SIZES), draw(SIZES)
        lines += ["primal_dims " + " ".join(map(str, dp)), "dual_dims " + " ".join(map(str, dd))]
        for k, i in np.ndindex(len(dd), len(dp)):
            lines += _entry_lines(draw, f"entry {k + 1} {i + 1}", dd[k], dp[i])
        lines += ["vec z " + " ".join(_numbers(draw, sum(dp))),
                  "vec r " + " ".join(_numbers(draw, sum(dd)))]
    else:
        dim = draw(st.integers(1, 3))
        dp, lines = [dim], lines + [f"dim {dim}"]
        if kind == "common_zero":
            dd = [dim] * draw(st.integers(1, 3))
        elif kind == "feasibility":
            dd = draw(SIZES)
            for k, d in enumerate(dd):
                lines += _entry_lines(draw, f"L {k + 1}", d, dim)
        else:
            dd = draw(SIZES)
            k1 = draw(st.integers(0, len(dd)))
            k2 = draw(st.integers(k1, len(dd)))
            lines += ["dual_dims " + " ".join(map(str, dd)), f"k1 {k1}", f"k2 {k2}",
                      "vec r " + " ".join(_numbers(draw, sum(dd)))]
            if draw(st.booleans()):
                lines.append("vec z " + " ".join(_numbers(draw, dim)))
            for k, d in enumerate(dd):
                lines += _entry_lines(draw, f"L {k + 1}", d, dim)
    for role, family, blocks in ROLES[kind]:
        if blocks is None:
            lines.append(_op_line(draw, role, None, family, dim))
            continue
        for idx, d in enumerate(dp if blocks == "primal" else dd):
            part = family
            if isinstance(family, tuple):
                part = family[(idx >= k1) + (idx >= k2)]
            lines.append(_op_line(draw, role, idx, part, d))
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True)):
        lines.append(f"config {key} {CONFIG_VALUES[key][0]}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_generated_problem_file_ends_with_an_exit_code(fuzz_dir, kind, data):
    assert set(PARAMS) == {_base_id(cid) for cid in CATALOG_IDS}
    solve_ends_with_an_exit_code(fuzz_dir / "generated.prob", data.draw(problem_files(kind)))

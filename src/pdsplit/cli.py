"""Command-line front end.

Subcommands: solve (run a problem file), demo (built-in instances with
oracles), selftest (property suite), list-catalog.  Runs emit a
per-iteration CSV trace and a summary file; exit codes are 0 on success,
1 on errors, 2 when the iteration hit its budget without converging.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .fbf import DivergenceError, FbfConfig, SummableErrorSchedule
from .operators import ParameterError
from .probfile import (
    CATALOG_IDS,
    CONFIG_KEYS,
    KINDS,
    ParseError,
    build_problem,
    parse_problem,
)
from .reductions import (
    EvaluationError,
    dual_objective,
    primal_objective,
    relaxation_objective,
)

CSV_HEADER = "iter,gamma,fixedpoint_residual,primal_kkt,dual_kkt,primal_obj,dual_obj,gap"

# config keys that are FbfConfig fields, and the field each one sets
_FBF_FIELDS = {"epsilon": "epsilon", "gamma": "gamma", "max_iters": "max_iters",
               "tol": "residual_tol"}


def _fmt(x):
    return format(float(x), ".17g")


def make_config(file_cfg, args):
    """Merge problem-file config with command-line overrides (which win)."""
    merged = dict(file_cfg)
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    errors = None
    if merged.get("error_eta", 0.0):
        errors = SummableErrorSchedule(
            merged["error_eta"], merged.get("error_p", 2.0), int(merged.get("seed", 0))
        )
    kwargs = {_FBF_FIELDS[k]: v for k, v in merged.items() if k in _FBF_FIELDS}
    return FbfConfig(errors=errors, **kwargs)


def _final_objectives(kind, prob, report):
    """(primal_obj, dual_obj, gap), with None for what has no evaluator."""

    def value(fn, *args):
        try:
            return fn(*args)
        except (EvaluationError, NotImplementedError):
            return None

    p = d = None
    if kind == "multivar_min":
        p = value(primal_objective, prob, report.primal)
        d = value(dual_objective, prob, report.dual)
    elif kind == "feasibility":
        p = value(relaxation_objective, prob, report.primal.flat())
    return p, d, None if p is None or d is None else p + d


def write_outputs(stem, outdir, kind, prob, report, wall_time, extra=None):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    kkt_at = {n: (pk, dk) for n, pk, dk in report.kkt_rows}
    last_iter = report.trace.rows[-1][0] if report.trace.rows else 0
    kkt_at[last_iter] = report.kkt
    pobj, dobj, gap = _final_objectives(kind, prob, report)

    lines = [CSV_HEADER]
    for n, gamma, resid in report.trace.rows:
        pk, dk = kkt_at.get(n, (None, None))
        final = n == last_iter
        cells = [
            str(n),
            _fmt(gamma),
            _fmt(resid),
            _fmt(pk) if pk is not None else "",
            _fmt(dk) if dk is not None else "",
            _fmt(pobj) if final and pobj is not None else "",
            _fmt(dobj) if final and dobj is not None else "",
            _fmt(gap) if final and gap is not None else "",
        ]
        lines.append(",".join(cells))
    trace_path = outdir / f"{stem}.trace.csv"
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    summary = [
        f"converged {'true' if report.converged else 'false'}",
        f"iterations {report.trace.iterations}",
        f"wall_time_s {_fmt(wall_time)}",
        f"final_residual {_fmt(report.trace.rows[-1][2]) if report.trace.rows else ''}",
        f"primal_kkt {_fmt(report.kkt[0])}",
        f"dual_kkt {_fmt(report.kkt[1])}",
    ]
    if pobj is not None:
        summary.append(f"primal_obj {_fmt(pobj)}")
    if dobj is not None:
        summary.append(f"dual_obj {_fmt(dobj)}")
    if gap is not None:
        summary.append(f"gap {_fmt(gap)}")
    for line in extra or []:
        summary.append(line)
    summary_path = outdir / f"{stem}.summary"
    summary_path.write_text(
        "\n".join(summary) + "\n", encoding="utf-8", newline="\n"
    )
    return trace_path, summary_path


def cmd_solve(args):
    path = Path(args.path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    try:
        pf = parse_problem(text)
        prob, solver = build_problem(pf)
        cfg = make_config(pf.config, args)
    except (ParseError, ParameterError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        report = solver(prob, cfg)
    except ParameterError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: solve diverged: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    trace_path, _ = write_outputs(
        path.stem, args.output_dir, pf.kind, prob, report, wall
    )
    print(f"{'converged' if report.converged else 'not converged'} "
          f"after {report.trace.iterations} iterations; trace at {trace_path}")
    return 0 if report.converged else 2


def cmd_demo(args):
    from .demos import DEMO_NAMES, get_demo

    try:
        demo = get_demo(args.name)
    except KeyError:
        print(
            f"error: unknown demo {args.name!r}; valid names: "
            + ", ".join(DEMO_NAMES),
            file=sys.stderr,
        )
        return 1
    prob = demo.build()
    cfg = make_config({}, args)
    t0 = time.perf_counter()
    report, x = demo.run(prob, cfg)
    wall = time.perf_counter() - t0
    oracle = demo.oracle(prob)
    import numpy as np

    deviation = float(np.linalg.norm(x - oracle))
    kind = {"twobox": "multivar_min", "lasso1d": "multivar_min",
            "legendre": "common_zero", "boxhalf": "feasibility"}[demo.name]
    extra = [
        "solution " + ",".join(_fmt(t) for t in x),
        "oracle " + ",".join(_fmt(t) for t in oracle),
        f"oracle_deviation {_fmt(deviation)}",
    ]
    trace_path, _ = write_outputs(
        demo.name, args.output_dir, kind, prob, report, wall, extra
    )
    print(f"{demo.name}: solution [" + ", ".join(_fmt(t) for t in x) + "], "
          f"oracle deviation {deviation:.3e}; trace at {trace_path}")
    return 0 if report.converged else 2


def cmd_selftest(args):
    from .selftest import run_selftest

    rows = run_selftest(seed=args.seed or 0, inject_fault=args.inject_fault)
    width = max(len(name) for name, _, _ in rows)
    failed = []
    for name, passed, detail in rows:
        print(f"{name.ljust(width)}  {'PASS' if passed else 'FAIL'}  {detail}")
        if not passed:
            failed.append(name)
    if failed:
        print("failed properties: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_list_catalog(args):
    from .demos import DEMO_NAMES

    print("problem kinds:")
    for kind in KINDS:
        print(f"  {kind}")
    print("catalog ids:")
    for cid in sorted(CATALOG_IDS):
        print(f"  {cid}")
    print("demos:")
    for name in DEMO_NAMES:
        print(f"  {name}")
    return 0


def _add_run_flags(sp):
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--error-eta", dest="error_eta", type=float, default=None)
    sp.add_argument("--error-p", dest="error_p", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--output-dir", dest="output_dir", default=".")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pdsplit",
        description="primal-dual splitting solver for coupled monotone inclusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem file")
    sp.add_argument("path")
    _add_run_flags(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("demo", help="run a built-in demo with its oracle")
    sp.add_argument("name")
    _add_run_flags(sp)
    sp.set_defaults(fn=cmd_demo)

    sp = sub.add_parser("selftest", help="run the property suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--inject-fault", action="store_true",
                    help="corrupt a norm bound to exercise the failure path")
    sp.set_defaults(fn=cmd_selftest)

    sp = sub.add_parser("list-catalog", help="list kinds, catalog ids, demos")
    sp.set_defaults(fn=cmd_list_catalog)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

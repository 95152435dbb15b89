"""Command-line front end.

Subcommands: solve (run a problem file), demo (run a built-in problem
file and compare with its oracle), selftest (property suite),
list-catalog.  solve and demo share one path from text to outputs.  Every
run that reaches the iteration writes a per-iteration CSV trace and a
summary file, which names its stop reason.  The exit code follows that
reason: 0 when the run converged, 2 when it hit its budget, 1 when it
diverged.  Invalid input exits 1 before the iteration, with one error
line and no outputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .fbf import FbfConfig, SummableErrorSchedule
from .operators import ParameterError
from .probfile import (
    CATALOG_IDS,
    CONFIG_KEYS,
    KINDS,
    ParseError,
    build_problem,
    entry_too_large,
    parse_problem,
)
from .reductions import evaluate_objectives, relaxation_objective

CSV_HEADER = "iter,gamma,fixedpoint_residual,primal_kkt,dual_kkt,primal_obj,dual_obj,gap"

_EXIT_CODES = {"converged": 0, "max_iters": 2, "diverged": 1}


def _fmt(x):
    return format(float(x), ".17g")


def make_config(file_cfg, args):
    """Merge problem-file config with command-line overrides (which win)."""
    merged = dict(file_cfg)
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    settings = {CONFIG_KEYS[key][1]: val for key, val in merged.items()}
    # built, and so validated, whether or not it perturbs anything; a zero
    # eta leaves the run unperturbed without drawing zero vectors
    errors = SummableErrorSchedule(settings.pop("eta", 0.0), settings.pop("p", 2.0),
                                   settings.pop("seed", 0))
    return FbfConfig(errors=errors if errors.eta else None, **settings)


def _final_objectives(kind, prob, report):
    """(primal_obj, dual_obj, gap), with None for what has no evaluator."""
    p = d = None
    if kind == "multivar_min":
        p, d = evaluate_objectives(prob, report.primal, report.dual)
    elif kind == "feasibility":
        p = relaxation_objective(prob, report.primal.flat())
    return p, d, None if p is None or d is None else p + d


def write_outputs(stem, outdir, kind, prob, report, wall_time, extra=None):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace = report.trace
    pobj, dobj, gap = _final_objectives(kind, prob, report)

    # KKT residuals and objectives are known at the last iterate only
    lines = [CSV_HEADER]
    lines += [f"{n},{_fmt(gamma)},{_fmt(resid)},,,,," for n, gamma, resid in trace.rows[:-1]]
    n, gamma, resid = trace.rows[-1]
    final = [_fmt(t) if t is not None else "" for t in (*report.kkt, pobj, dobj, gap)]
    lines.append(",".join([str(n), _fmt(gamma), _fmt(resid)] + final))
    trace_path = outdir / f"{stem}.trace.csv"
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    summary = [
        f"converged {'true' if report.converged else 'false'}",
        f"stop_reason {trace.stop_reason}",
        f"iterations {trace.iterations}",
        f"beta {_fmt(trace.chi)}",
        f"wall_time_s {_fmt(wall_time)}",
        f"final_residual {_fmt(resid)}",
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


def _located(exc, pf, args):
    """exc's message, led by 'line N: ' where pf's line N gave the value at
    fault: the entry of a lifted coupling cell whose norm bound overflows,
    or the config line of a setting that no flag overrode."""
    if isinstance(exc.key, tuple):
        return entry_too_large(pf, exc.key)
    for key, (_, setting) in CONFIG_KEYS.items():
        line = pf.lines.get(("config", key))
        if setting == exc.key and line is not None and getattr(args, key, None) is None:
            return f"line {line}: {exc}"
    return str(exc)


def _finish(label, report, trace_path, message):
    """Print how the run ended and return its exit code."""
    trace = report.trace
    if trace.stop_reason == "diverged":
        print(f"error: {label}: diverged at iteration {trace.rows[-1][0]}; "
              f"trace at {trace_path}", file=sys.stderr)
    else:
        print(message)
    return _EXIT_CODES[trace.stop_reason]


def _run(label, stem, text, args, oracle=None):
    """Solve the problem file text under the config of its file and args'
    flags, write the outputs named stem and return the exit code; errors
    are led by label.  oracle, when given, maps the built problem to its
    known solution, whose deviation the summary and the message report."""
    try:
        pf = parse_problem(text)
        prob, solver = build_problem(pf)
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)    # before the solve
    except (ParseError, ParameterError) as exc:
        print(f"error: {label}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {label}: cannot create output directory {args.output_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    try:
        cfg = make_config(pf.config, args)
        t0 = time.perf_counter()
        report = solver(prob, cfg)
    except ParameterError as exc:
        print(f"error: {label}: {_located(exc, pf, args)}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    extra = []
    message = (f"{'converged' if report.converged else 'not converged'} "
               f"after {report.trace.iterations} iterations")
    if oracle is not None:
        x, want = report.primal.flat(), oracle(prob)
        deviation = float(np.linalg.norm(x - want))
        extra = ["solution " + ",".join(_fmt(t) for t in x),
                 "oracle " + ",".join(_fmt(t) for t in want),
                 f"oracle_deviation {_fmt(deviation)}"]
        message = (f"{stem}: solution [" + ", ".join(_fmt(t) for t in x) + "], "
                   f"oracle deviation {deviation:.3e}")
    trace_path, _ = write_outputs(stem, args.output_dir, pf.kind, prob, report, wall, extra)
    return _finish(label, report, trace_path, f"{message}; trace at {trace_path}")


def cmd_solve(args):
    path = Path(args.path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1     # of the first bad byte
        print(f"error: {path}: line {line}: not UTF-8: {exc.reason}", file=sys.stderr)
        return 1
    return _run(path, path.stem, text, args)


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
    return _run(f"demo {demo.name}", demo.name, demo.text, args, demo.oracle)


def cmd_selftest(args):
    from .selftest import run_selftest

    if args.seed < 0:
        print(f"error: selftest: seed must be a nonnegative integer, got {args.seed}",
              file=sys.stderr)
        return 1
    rows = run_selftest(seed=args.seed)
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
    for key, (cast, _) in CONFIG_KEYS.items():
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, default=None)
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
    sp.set_defaults(fn=cmd_selftest)

    sp = sub.add_parser("list-catalog", help="list kinds, catalog ids, demos")
    sp.set_defaults(fn=cmd_list_catalog)

    args = parser.parse_args(argv)
    # an overflowing run ends with the "diverged" stop reason, which the
    # commands report themselves, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

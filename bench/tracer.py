"""Per-layer spans and counters, recorded from outside the library.

The tracer replaces public functions and methods of the pdsplit modules
with timing wrappers and puts the originals back when it is closed.  Some
modules import functions from others by name (``system`` and
``reductions`` take ``apply_block``, ``apply_adjoint``, ``gamma_for`` and
``kkt_residual`` into their own namespaces; ``probfile`` takes the solver
entry points; ``cli`` takes the parser), so each such module global is
replaced as well.  Calls inside one module (``apply_block`` walking its
cells through ``entry_apply``) are not traced: spans mark the boundaries
between layers.

Spans are folded into per-name totals as they close, which keeps memory
flat on runs with millions of calls.  A span's self time is its duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import time
from pathlib import Path

perf = time.perf_counter


class Totals:
    __slots__ = ("calls", "seconds", "self_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


class Tracer:
    """Installs wrappers on ``install()``; ``close()`` restores the originals."""

    def __init__(self, pdsplit_modules):
        self.mods = pdsplit_modules
        self.totals = {}
        self.counters = {"nnz": 0, "cells": 0, "error_bytes": 0,
                         "trace_rows": 0, "bytes_written": 0}
        self.root_seconds = 0.0
        self._stack = []      # child-time accumulators of the open spans
        self._active = {}     # name -> nesting depth, so nested spans of one name count once
        self._patched = []    # (owner, attr, original)
        self._grid_sizes = {}

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, name, fn, after=None):
        totals = self.totals.setdefault(name, Totals())
        stack = self._stack
        active = self._active
        active.setdefault(name, 0)

        def traced(*args, **kwargs):
            stack.append(0.0)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                depth = active[name] = active[name] - 1
                totals.calls += 1
                if not depth:
                    totals.seconds += dt
                totals.self_seconds += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.root_seconds += dt
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, name, home, attr, importers=(), after=None):
        """Wrap ``home.attr`` and every module that imported it by name."""
        original = getattr(home, attr)
        wrapper = self._wrap(name, original, after)
        self._patch(home, attr, wrapper)
        for mod in importers:
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, wrapper)

    def _patch_method(self, name, cls, attr):
        if attr in cls.__dict__:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))

    # -- counters -------------------------------------------------------------

    def _count_cells(self, args, _result):
        L = args[0]
        sizes = self._grid_sizes.get(id(L))
        if sizes is None or sizes[0] is not L:
            nnz = sum(e is not None for row in L.entries for e in row)
            sizes = (L, nnz, L.sig.K * L.sig.m)
            self._grid_sizes[id(L)] = sizes
        self.counters["nnz"] += sizes[1]
        self.counters["cells"] += sizes[2]

    def _count_error_bytes(self, args, result):
        self.counters["error_bytes"] += sum(
            b.nbytes for vec in result for b in vec.blocks
        )

    def _count_outputs(self, args, result):
        report = args[4]
        self.counters["trace_rows"] += len(report.trace.rows)
        self.counters["bytes_written"] += sum(Path(p).stat().st_size for p in result)

    # -- install / restore ----------------------------------------------------

    def install(self):
        m = self.mods
        blocks, ops, fbf, system, red, probfile, cli = (
            m["blocks"], m["operators"], m["fbf"], m["system"],
            m["reductions"], m["probfile"], m["cli"],
        )
        users = (system, red, probfile, cli)

        self._patch_function("blocks.apply_block", blocks, "apply_block", users,
                             after=self._count_cells)
        self._patch_function("blocks.apply_adjoint", blocks, "apply_adjoint", users,
                             after=self._count_cells)
        for attr in ("lambda_conservative", "lambda_power_iteration", "entry_norm_sq"):
            self._patch_function("blocks.lambda", blocks, attr, users)
        # Only the imported copies: inside blocks these are per-cell helpers.
        for attr in ("entry_apply", "entry_apply_adjoint"):
            self._patch_function("blocks.entry_apply", red, attr)

        for cls in (ops.ZeroOperator, ops.ScaledIdentity, ops.NormalCone,
                    ops.SubdifferentialOperator):
            self._patch_method("operators.resolvent", cls, "resolvent")
        self._patch_method("operators.resolvent_affine", ops.AffineOperator, "resolvent")
        self._patch_method("operators.lipschitz", ops.LipschitzOperator, "__call__")

        self._patch_function("fbf.gamma_for", fbf, "gamma_for", users)
        self._patch_function("fbf.solve", fbf, "fbf_solve", users)
        self._patch(
            fbf.SummableErrorSchedule, "__call__",
            self._wrap("fbf.error_draw", fbf.SummableErrorSchedule.__call__,
                       after=self._count_error_bytes),
        )

        self._patch_function("system.solve", system, "solve_system", users)
        self._patch_function("system.kkt", system, "kkt_residual", users)
        self._patch_function("system.beta", system, "compute_beta", users)

        self._patch_function("reductions.parallel_sum", red, "solve_parallel_sum", users)
        self._patch_function("reductions.common_zero", red, "solve_common_zero", users)
        self._patch_function("reductions.multivariate_min", red,
                             "solve_multivariate_min", users)
        self._patch_function("reductions.lift", red, "lift_parallel_sum", users)
        self._patch_function("reductions.objectives", red, "evaluate_objectives", users)

        self._patch_function("probfile.parse", probfile, "parse_problem", users)
        self._patch_function("probfile.build", probfile, "build_problem", users)

        self._patch_function("cli.make_config", cli, "make_config")
        self._patch_function("cli.write_outputs", cli, "write_outputs",
                             after=self._count_outputs)
        return self

    def close(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._grid_sizes.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()

    # -- readout --------------------------------------------------------------

    def snapshot(self):
        """Totals and counters so far; then start counting from zero.
        The wrappers hold their Totals objects, so those are reset in place."""
        totals = {}
        for name, t in self.totals.items():
            copy = totals[name] = Totals()
            copy.calls, copy.seconds, copy.self_seconds = t.calls, t.seconds, t.self_seconds
            t.calls, t.seconds, t.self_seconds = 0, 0.0, 0.0
        snap = {"totals": totals, "counters": self.counters,
                "root_seconds": self.root_seconds}
        self.counters = dict.fromkeys(self.counters, 0)
        self.root_seconds = 0.0
        return snap

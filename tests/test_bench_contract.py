"""What the benchmark in bench/ relies on in the library.

bench/tracer.py wraps named functions and methods of the pdsplit modules
to time each layer, and bench/run.py wraps ``fbf.gamma_for`` as its
iteration clock.  These tests pin both contracts, so that a refactor that
drops a traced name, fails to restore it, or moves the step lookup out of
the iteration loop fails here rather than silently in the benchmark.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import pdsplit.fbf
from conftest import random_coupled_problem
from pdsplit import (
    BlockLinearOp,
    BlockVector,
    CommonZeroProblem,
    FbfConfig,
    Hyperplane,
    L1Norm,
    MultivariateMinProblem,
    NormalCone,
    ParallelSumProblem,
    QuadraticDistance,
    ScaledIdentity,
    SpaceSig,
    SummableErrorSchedule,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
    lift_parallel_sum,
    solve_common_zero,
    solve_system,
)
from pdsplit.cli import main
from pdsplit.demos import get_demo

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = ("blocks", "operators", "fbf", "system", "reductions", "probfile", "cli")

# (module or class, attribute) that the tracer wraps where it is defined
TRACED = {
    ("blocks", "apply_block"), ("blocks", "apply_adjoint"),
    ("blocks", "lambda_conservative"), ("blocks", "lambda_power_iteration"),
    ("blocks", "entry_norm_sq"),
    ("reductions", "entry_apply"), ("reductions", "entry_apply_adjoint"),
    ("ZeroOperator", "resolvent"), ("ScaledIdentity", "resolvent"),
    ("NormalCone", "resolvent"), ("SubdifferentialOperator", "resolvent"),
    ("AffineOperator", "resolvent"), ("LipschitzOperator", "__call__"),
    ("fbf", "gamma_for"), ("fbf", "fbf_solve"),
    ("SummableErrorSchedule", "__call__"),
    ("system", "solve_system"), ("system", "kkt_residual"),
    ("system", "compute_beta"),
    ("reductions", "solve_parallel_sum"), ("reductions", "solve_common_zero"),
    ("reductions", "solve_multivariate_min"), ("reductions", "lift_parallel_sum"),
    ("reductions", "evaluate_objectives"),
    ("probfile", "parse_problem"), ("probfile", "build_problem"),
    ("cli", "make_config"), ("cli", "write_outputs"),
}

SYSTEM_TEXT = """\
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

MULTIVAR_TEXT = """\
problem multivar_min
primal_dims 1 1 1
dual_dims 1 1
op f 1 sqdist a=0
op f 2 sqdist a=2
op f 3 sqdist a=1
op h 1 zero
op h 2 zero
op h 3 zero
op g 1 l1 weight=0.5
op g 2 l1 weight=0.5
op ell 1 none
op ell 2 none
entry 1 1 scale 1
entry 1 2 scale -1
entry 2 2 scale 1
entry 2 3 scale -1
vec z 0 0 0
vec r 0 0
"""

# every span a file solve passes through, from reading the file to writing
# the outputs
SOLVE_PATH_SPANS = (
    "probfile.parse", "probfile.build", "reductions.multivariate_min", "system.solve",
    "system.beta", "system.kkt", "fbf.solve", "blocks.apply_block",
    "blocks.apply_adjoint", "operators.resolvent", "reductions.objectives",
    "cli.write_outputs",
)

# every span tiny_psum's solve of a fresh common-zero problem passes through,
# one for each layer from the front end down to the engine
COMMON_ZERO_SPANS = (
    "reductions.common_zero", "reductions.parallel_sum", "reductions.lift",
    "system.solve", "system.beta", "system.kkt", "fbf.solve",
)


def _attributes(mods):
    """(owner, name) -> value for every module global and every attribute
    of the classes the modules define."""
    out = {}
    for mod in mods.values():
        for name, value in vars(mod).items():
            out[(mod, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(value, attr)] = member
    return out


def _short(owner):
    return owner.__name__.rsplit(".", 1)[-1]


def test_tracer_wraps_every_layer_and_restores_it():
    mods = {name: importlib.import_module(f"pdsplit.{name}") for name in MODULES}
    before = _attributes(mods)
    tracer = Tracer(mods).install()
    try:
        during = _attributes(mods)
    finally:
        tracer.close()
    after = _attributes(mods)
    patched = {key for key, value in before.items() if during[key] is not value}
    assert TRACED <= {(_short(owner), attr) for owner, attr in patched}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _count_gamma_for(monkeypatch):
    calls = []
    original = pdsplit.fbf.gamma_for

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(pdsplit.fbf, "gamma_for", counted)
    return calls


def test_gamma_for_runs_once_per_iteration(monkeypatch, tmp_path):
    calls = _count_gamma_for(monkeypatch)
    report = solve_system(random_coupled_problem(np.random.default_rng(3)),
                          FbfConfig(max_iters=300))
    assert calls == list(range(report.trace.iterations))

    calls.clear()
    report = solve_common_zero(get_demo("legendre").build(), FbfConfig())
    assert report.converged and calls == list(range(report.trace.iterations))

    calls.clear()
    path = tmp_path / "box.prob"
    path.write_text(SYSTEM_TEXT)
    assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 0
    summary = dict(line.split(" ", 1)
                   for line in (tmp_path / "box.summary").read_text().splitlines())
    assert calls == list(range(int(summary["iterations"])))


def test_gamma_for_runs_once_per_iteration_when_iterations_are_redone(monkeypatch):
    # a redone iteration is not a new one: the clock ticks once for it
    # (Q is 1-Lipschitz with slope 0.1 on x >= 0, where the probe looks,
    # and its zero -0.5 lies on the steep side)
    calls = _count_gamma_for(monkeypatch)
    trace = pdsplit.fbf.fbf_solve(
        lambda gamma, s, out: np.copyto(out, ZeroOperator().resolvent(gamma, s)) or out,
        lambda x, out: np.copyto(out, np.where(x >= 0.0, 0.1 * x, x) + 0.5) or out,
        1.0, np.ones(1), FbfConfig())
    assert trace.converged and trace.retries > 0
    assert calls == list(range(trace.iterations))


def test_a_warm_dense_grid_solve_inverts_nothing(monkeypatch, tmp_path):
    # the memo keeps the iteration's step and the unit step of the probe
    # and the certificate, so only the first solve inverts, six operators
    # at two steps each
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(1) or inv(a))
    pd = SimpleNamespace(**{name: importlib.import_module(f"pdsplit.{name}")
                            for name in MODULES})
    wl = workloads.DenseGrid(pd, 11, tmp_path)
    prob = wl.setup()
    counts = []
    for _ in range(2):
        inversions.clear()
        report = wl.solve(prob, 0)
        assert report.converged and wl.check(0, report) is None
        counts.append(len(inversions))
    assert counts[0] <= 12 and counts[1] == 0


def test_tracer_counts_the_cells_of_sparse_couplings():
    # the tracer reads L.entries, the grid view of the stored nonzeros
    m = 5
    chain = {(k, k): 1.0 for k in range(m - 1)}
    chain.update({(k, k + 1): -1.0 for k in range(m - 1)})
    sig = SpaceSig((1,) * m, (1,) * (m - 1))
    lifted = lift_parallel_sum(ParallelSumProblem(
        dim=1, dual_dims=(1, 1, 1), K1=2, K2=2, A=ZeroOperator(), C=ZeroMap(),
        z=np.zeros(1), r=[np.zeros(1)] * 3, B=[ScaledIdentity(1.0)] * 3,
        S=[ScaledIdentity(1.0)] * 2 + [ZeroMap()], L=[1.0, None, 2.0],
    ))
    mods = {name: importlib.import_module(f"pdsplit.{name}") for name in MODULES}
    # (L, nnz, K x m cells): the lifting stacks the column of L_k and -Id on
    # the diagonal of the two auxiliaries, and None is a zero cell
    for L, nnz, cells in ((BlockLinearOp(chain, sig), 8, 20), (lifted.L, 4, 9)):
        tracer = Tracer(mods)
        tracer._count_cells((L,), None)
        tracer._count_cells((L,), None)
        assert (tracer.counters["nnz"], tracer.counters["cells"]) == (2 * nnz, 2 * cells)


def test_tracer_counts_the_bytes_of_every_error_draw():
    # the tracer reads the .blocks of the three vectors an error draw returns
    prob = random_coupled_problem(np.random.default_rng(5))
    size = sum(prob.sig.dims_primal + prob.sig.dims_dual)
    cfg = FbfConfig(max_iters=40, errors=SummableErrorSchedule(0.05, 2.0, seed=2))
    mods = {name: importlib.import_module(f"pdsplit.{name}") for name in MODULES}
    with Tracer(mods) as tracer:
        report = solve_system(prob, cfg)
    assert report.trace.iterations > 1
    assert tracer.counters["error_bytes"] == 3 * 8 * size * report.trace.iterations


def test_runs_of_scalar_blocks_take_one_resolvent_call_each():
    # tv_chain's shape: m scalar blocks with sqdist f_i and l1 g_k on their
    # differences.  Each evaluation of the pair's resolvent resolves the f_i
    # in one joined call and the g_k in another: one per iteration, one per
    # iteration redone at a smaller step, the probe that sets the first
    # step and the final kkt_residual at unit step.
    m = 16
    sig = SpaceSig((1,) * m, (1,) * (m - 1))
    chain = {(k, k): 1.0 for k in range(m - 1)}
    chain.update({(k, k + 1): -1.0 for k in range(m - 1)})
    y = np.repeat([0.0, 2.0, -1.0, 1.0], m // 4)
    prob = MultivariateMinProblem(
        sig, [QuadraticDistance([yi]) for yi in y], [ZeroFunction()] * m,
        [L1Norm(0.5)] * (m - 1), [None] * (m - 1),
        BlockVector.zeros(sig.dims_primal), BlockVector.zeros(sig.dims_dual),
        BlockLinearOp(chain, sig))
    mods = {name: importlib.import_module(f"pdsplit.{name}") for name in MODULES}
    with Tracer(mods) as tracer:
        report = mods["reductions"].solve_multivariate_min(prob, FbfConfig(residual_tol=1e-6))
    assert report.converged and report.trace.iterations > 1
    resolvents = tracer.totals["operators.resolvent"].calls
    assert resolvents == 2 * (report.trace.iterations + report.trace.retries + 2)


def test_a_file_solve_passes_through_every_solve_path_span(tmp_path):
    path = tmp_path / "tv.prob"
    path.write_text(MULTIVAR_TEXT)
    mods = {name: importlib.import_module(f"pdsplit.{name}") for name in MODULES}
    with Tracer(mods) as tracer:
        assert main(["solve", str(path), "--output-dir", str(tmp_path)]) == 0
    missing = [name for name in SOLVE_PATH_SPANS
               if name not in tracer.totals or tracer.totals[name].calls < 1]
    assert not missing
    summary = (tmp_path / "tv.summary").read_text()
    assert "primal_obj " in summary and "gap " in summary


def test_a_common_zero_solve_passes_through_every_layer_span():
    # tiny_psum's shape: lines in the plane, each a normal cone by resolvent
    lines = [([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0), ([0.6, 0.8], 0.5)]
    prob = CommonZeroProblem(2, ZeroOperator(),
                             [NormalCone(Hyperplane(u, rho)) for u, rho in lines],
                             [ScaledIdentity(1.0)] * 3)
    mods = {name: importlib.import_module(f"pdsplit.{name}") for name in MODULES}
    with Tracer(mods) as tracer:
        report = mods["reductions"].solve_common_zero(prob, FbfConfig())
    assert report.converged
    missing = [name for name in COMMON_ZERO_SPANS
               if name not in tracer.totals or tracer.totals[name].calls < 1]
    assert not missing

"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import contextlib
import io
import shutil
import sys

import pytest

import run
import tracing
from tracing import Span, Tracer
from workloads import GOLDEN, WORKLOADS, Outcome, Workload

cli = run.import_cli()

SMALL = {
    "simulate": ["simulate", "--set", "graph.n=30", "--set", "graph.k=3", "--set", "integrator.t_max=20"],
    "ensemble": ["ensemble", "--set", "graph.family=erdos-renyi", "--set", "graph.n=20", "--set", "graph.p=0.2",
                 "--set", "experiment.realizations=40", "--set", "experiment.threads=2"],
}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_traced_run_leaves_outputs_byte_identical(command):
    workload = Workload(command, "self-test", lambda seed: SMALL[command], lambda out, seed: Outcome(1))
    plain = run.run_once(cli, workload, 0)
    tracer = Tracer(run.OBSERVERS)
    traced = run.run_once(cli, workload, 0, tracer)
    assert plain.outcome.failed == traced.outcome.failed == 0
    assert plain.files and traced.files == plain.files
    # bindings imported into other modules were wrapped too
    assert tracing.calls(tracer, lambda n: n == "graphs.build_graph") >= 1
    assert tracing.calls(tracer, lambda n: n == "spectra.eig_symmetric") >= 1
    assert all(tracing.self_time(span) > -1e-9 for span in tracer.spans())
    # and were restored afterwards
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(sys.modules["crossnet.spectra"].build_graph, "__wrapped__")


def _span(name, parent, start, end, count=1, total=None, thread=1):
    span = Span(name, parent, thread)
    span.start, span.end, span.count = start, end, count
    span.total = end - start if total is None else total
    if parent is not None:
        if thread == parent.thread:
            parent.children[name] = span
        else:
            parent.foreign.append(span)
    return span


def test_self_time_of_nested_spans():
    root = _span("cli.main", None, 0.0, 20.0)
    agg = _span("dynamics.rhs_skt", root, 1.0, 6.0, count=3, total=4.0)
    _span("dynamics.reaction_terms", agg, 1.0, 5.0, count=3, total=1.5)
    # worker-thread calls overlap each other: their union is 1..7 plus 8..9
    for start, end in ((1.0, 5.0), (3.0, 7.0), (8.0, 9.0)):
        _span("graphs.build_graph", root, start, end, thread=2)
    inner = _span("graphs.build_graph", root.foreign[0], 2.0, 3.0, thread=2)

    assert tracing.self_time(agg) == pytest.approx(2.5)
    assert tracing.self_time(root) == pytest.approx(20.0 - 4.0 - 7.0)
    assert tracing.self_time(root.foreign[0]) == pytest.approx(3.0)
    assert tracing.self_time(inner) == pytest.approx(1.0)

    tracer = Tracer()
    tracer.roots = {"cli.main": root}
    # the nested build_graph is not counted twice
    assert tracing.busy(tracer, lambda n: n == "graphs.build_graph") == pytest.approx(4.0 + 4.0 + 1.0)
    assert tracing.calls(tracer, lambda n: n == "graphs.build_graph") == 4
    assert tracing.busy(tracer, lambda n: n.startswith("dynamics.")) == pytest.approx(4.0)


def test_ensemble_check_counts_a_corrupted_row(tmp_path):
    for name in ("ensemble.csv", "summary.csv"):
        shutil.copy(GOLDEN / "ensemble-er100" / name, tmp_path / name)
    check = WORKLOADS["ensemble-er100"].check
    assert check(tmp_path, 0).failed == 0

    summary = tmp_path / "summary.csv"
    lines = summary.read_text().splitlines()
    lines[2] = lines[2].replace(",1,", ",0.998,", 1)  # the p=0.2 row
    summary.write_text("\n".join(lines) + "\n")
    outcome = check(tmp_path, 0)
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert all(p.startswith("p=0.2:") for p in outcome.problems)


def test_simulate_check_counts_a_corrupted_final_state(tmp_path):
    workload = WORKLOADS["simulate-ring400"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*workload.argv(0), "--output-dir", str(tmp_path)]) == 0
    outcome = workload.check(tmp_path, 0)
    assert (outcome.attempted, outcome.failed) == (6, 0), outcome.problems

    final = tmp_path / "seed_2" / "final_state.csv"
    lines = final.read_text().splitlines()
    node, u, v = lines[5].split(",")
    lines[5] = f"{node},{float(u) + 1e-3!r},{v}"
    final.write_text("\n".join(lines) + "\n")
    outcome = workload.check(tmp_path, 0)
    assert outcome.failed == 1
    assert all(p.startswith("seed 2:") for p in outcome.problems)
    assert any("residual" in p for p in outcome.problems)
    assert any("golden" in p for p in outcome.problems)


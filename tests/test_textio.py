"""The table writers: every float cell is the text ``format(float(x), ".17g")``
gives, special values included, and the block formatting of
``textio.write_table`` does not change a byte."""
import dataclasses
import math

import numpy as np
import pytest

from crossnet import DEFAULT_SKT_PARAMS, GraphSpec, IntegratorConfig, build_graph, integrate_batch, textio
from crossnet.dynamics import write_final_state_csv, write_trajectory_csv
from crossnet.experiments import EnsembleRow, SweepSpec, ring_sweep, write_ensemble_report, write_ring_sweep
from crossnet.graphs import write_edge_list
from crossnet.spectra import SpectralStats, write_spectrum_csv

CELLS = [0.0, -0.0, 5e-324, 1e-320, 1.0 / 3.0, -2.5e-17, 1e300, 2.0**70, math.inf, -math.inf, math.nan]


def g17(x) -> str:
    return format(float(x), ".17g")


def lines(path) -> list[str]:
    return path.read_text().splitlines()


def test_trajectory_csv_cells_read_as_format_17g_writes_them(tmp_path):
    res = integrate_batch(lambda y: -y, [np.ones((2, 5))], IntegratorConfig(t_max=0.1))[0]
    res = dataclasses.replace(res, times=np.array([0.0, 0.1, 1.0 / 3.0]), traj=np.resize(CELLS, (3, 2, 5)))
    write_trajectory_csv(res, tmp_path / "traj.csv")
    expect = [",".join(g17(x) for x in (t, *state.ravel())) for t, state in zip(res.times, res.traj)]
    assert lines(tmp_path / "traj.csv")[1:] == expect


def test_final_state_and_spectrum_csv_cells_read_as_format_17g(tmp_path):
    state = np.array([CELLS, CELLS[::-1]])
    write_final_state_csv(state, tmp_path / "final.csv")
    expect = [f"{i},{g17(u)},{g17(v)}" for i, (u, v) in enumerate(state.T)]
    assert lines(tmp_path / "final.csv") == ["node,u,v", *expect]
    write_spectrum_csv(np.array(CELLS), tmp_path / "spectrum.csv")
    assert lines(tmp_path / "spectrum.csv") == ["index,eigenvalue", *(f"{i},{g17(x)}" for i, x in enumerate(CELLS))]


@pytest.mark.parametrize("family, values", [("erdos-renyi", (0.05, 0.1)), ("regular-random", (4, 6))])
def test_ensemble_tables_cells_read_as_format_17g(tmp_path, family, values):
    base = GraphSpec(family=family, n=11, p=0.5) if family == "erdos-renyi" else GraphSpec(family=family, n=12, k=4)
    sweep = SweepSpec(base=base, swept="p" if family == "erdos-renyi" else "k", values=values)
    stats = SpectralStats(np.array(CELLS), np.array(CELLS[::-1]), 3)
    rows = [EnsembleRow(value, stats, CELLS[j + 4], j) for j, value in enumerate(values)]
    write_ensemble_report(sweep, rows, str(tmp_path))
    assert lines(tmp_path / "ensemble.csv")[1:] == [
        f"{r.value},{i},{g17(mean)},{g17(var)},3" for r in rows for i, (mean, var) in enumerate(zip(CELLS, CELLS[::-1]))
    ]
    lead = (lambda r: f"{r.value},{r.value / 2:g}") if family == "regular-random" else (lambda r: f"{r.value}")
    assert lines(tmp_path / "summary.csv")[1:] == [
        f"{lead(r)},{g17(r.instability_fraction)},{r.mean_spectrum_unstable_count}" for r in rows
    ]


@pytest.mark.parametrize("d12, absent", [(0.0, 3), (1.0, 2), (3.0, 0)])
def test_ring_sweep_summary_leaves_an_absent_window_cell_empty(tmp_path, d12, absent):
    skt = dataclasses.replace(DEFAULT_SKT_PARAMS, d12=d12)
    rows = ring_sweep(SweepSpec(base=GraphSpec(family="ring", n=20, k=2), swept="k", values=(2, 3), skt=skt))
    write_ring_sweep(rows, str(tmp_path))
    windows = [(r.lambda_star, r.lambda_star_1, r.lambda_star_2) for r in rows]
    assert [w.count(None) for w in windows] == [absent, absent]
    assert lines(tmp_path / "summary.csv")[1:] == [
        f"{r.value},{r.n},{r.k},{','.join('' if x is None else g17(x) for x in w)},{r.unstable_count}"
        for r, w in zip(rows, windows)
    ]


def test_write_table_blocks_do_not_change_the_text(tmp_path, monkeypatch):
    # a block boundary inside the rows, at a row's end, and one value per block
    g = build_graph(GraphSpec(family="ring", n=9, k=2))
    state = np.array([CELLS, CELLS[::-1]])
    texts = []
    for block in (1 << 14, 1, 3, 6, 7):
        monkeypatch.setattr(textio, "_BLOCK", block)
        write_edge_list(g, tmp_path / "graph.txt")
        write_final_state_csv(state, tmp_path / "final.csv")
        texts.append(((tmp_path / "graph.txt").read_text(), (tmp_path / "final.csv").read_text()))
    assert texts[0][0] == "9\n" + "".join(f"{i} {j}\n" for i, j in g.edges.tolist())
    assert all(text == texts[0] for text in texts)
    textio.write_table(tmp_path / "empty.csv", "a,b", "%d,%.17g", np.empty((0, 2)))
    textio.write_table(tmp_path / "none.csv", "a,b", "%d,%.17g", [])
    assert lines(tmp_path / "empty.csv") == lines(tmp_path / "none.csv") == ["a,b"]

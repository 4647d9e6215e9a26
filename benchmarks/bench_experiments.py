"""Every quick cell of the §8 experiment registry, timed once.

The paper's shapes (EXPERIMENTS.md) read off the recorded fields:
CROWN finishes every Fig. 7 query and its Fig. 11 latency stays
bounded over the stream; a baseline that fails records ``FAIL(...)``
as the jobs print it.
"""
import pytest

from repro.bench.experiments import FIGURES, TIME_LIMIT_S

CELLS = [c for cells_of, _ in FIGURES.values() for c in cells_of("quick")]


@pytest.mark.parametrize(
    "cell",
    [pytest.param(c, id=c.id, marks=[pytest.mark.spark] if c.spark else []) for c in CELLS],
)
def test_cell(benchmark, request, cell):
    if cell.spark:
        request.getfixturevalue("spark")
    inp = cell.load()
    out = benchmark.pedantic(cell.measure, args=(inp, TIME_LIMIT_S), rounds=1, iterations=1)
    benchmark.extra_info.update(out)
    if cell.figure == "fig7" and cell.engine == "crown":
        assert not out["crown"].startswith("FAIL"), out
    if cell.figure == "fig11" and cell.engine == "crown":
        assert out["q4_avg_ms"] < 20 * max(out["q1_avg_ms"], 1e-4), out

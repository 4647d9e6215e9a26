"""The §8 experiment registry (``repro.bench.experiments``) and its job."""
import os
import re
import subprocess
import sys

import pytest

from repro.bench.experiments import (
    ENGINES,
    FIG7_QUERIES,
    FIGURES,
    SIZES,
    Workload,
    comb_preload,
    fig9,
    fig10_events,
    net_batches,
    replay,
)
from repro.bench.harness import graph_stream, snb_stream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small enough for tier-1, large enough that every query has deltas (at
# SNB sf=0.001, Q2–Q4 have none)
GRAPH_SF = 0.002
TINY_GRAPH = graph_stream(sf=GRAPH_SF, window=50, limit=120)
TINY_SNB = snb_stream(sf=0.002, window_days=30)


@pytest.mark.parametrize("query", list(FIG7_QUERIES))
def test_fig7_engines_agree(query):
    bq = FIG7_QUERIES[query]()
    seq = TINY_SNB if bq.kind == "snb" else TINY_GRAPH
    w = Workload(bq, seq, comb_preload(bq, GRAPH_SF))
    deltas = {e: replay(e, w).deltas for e in ENGINES}
    assert len(set(deltas.values())) == 1 and deltas["crown"] > 0, deltas


def test_fig9_counter_changes_per_update():
    got = {
        dict(c.row)["lambda"]: c.measure(c.load(), None)["counter_changes_per_update"]
        for c in fig9("quick")
    }
    assert got == {1: 9, 4: 33, 16: 129}


@pytest.mark.parametrize("scale", ["quick", "full"])
def test_fig10_net_batches(scale):
    s = SIZES["fig10"][scale]
    events = fig10_events(s["events"], s["dom"]).head(s["baseline_events"])
    batches = net_batches(events, 4)

    def live_after(*frames):
        live = set()
        for f in frames:
            for sign, *t in f[["sign", "v0", "v1"]].itertuples(index=False, name=None):
                (live.add if sign > 0 else live.discard)(tuple(t))
        return live

    for b in batches:
        assert not b.duplicated(["stream", "v0", "v1"]).any()
    assert live_after(*batches) == live_after(events)
    # contiguous: a batch never holds an event older than its predecessor's
    assert all(a.seq.max() < b.seq.min() for a, b in zip(batches, batches[1:]))


def test_cells_have_unique_ids():
    for scale in ("quick", "full"):
        ids = [c.id for cells_of, _ in FIGURES.values() for c in cells_of(scale)]
        assert len(ids) == len(set(ids)), scale


def test_table1_job_matches_experiments_md():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "jobs", "run.py"), "table1"],
        capture_output=True, text=True, check=True,
    ).stdout
    lines = [line.rstrip() for line in out.splitlines()]
    assert lines[0] == "Table 1: engine features"
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
        block = re.search(r"## Table 1.*?```\n(.*?)```", f.read(), re.S).group(1)
    # the block fixes each system's row, and so their order
    assert lines[1:] == block.splitlines()

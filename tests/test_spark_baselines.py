"""Spark baselines (standard CP, first-order HIVM) vs oracle/engines."""
import random

import pandas as pd
import pytest

from repro.bench.experiments import spark_atom_filters
from repro.bench.queries import hop3_full, hop3_proj
from repro.core.engine import CrownEngine
from repro.oracle import assert_equivalent
from repro.spark.baseline_cp import SparkStandardCP
from repro.spark.hivm_spark import SparkFirstOrderHIVM
from repro.streams.sequences import Update
from repro.synth_data import graph_edges_pdf

pytestmark = pytest.mark.spark


def batched_graph_events(n_batches=3, per_batch=35, dom=12, seed=0):
    """Batches of net ``(sign, src, dst)`` edge events: at most one event
    per edge and batch, the last one wins."""
    rng = random.Random(seed)
    live = set()
    batches = []
    for _ in range(n_batches):
        events = {}
        for _ in range(per_batch):
            if live and rng.random() < 0.3:
                t = rng.choice(sorted(live))
                live.discard(t)
                events[t] = -1
            else:
                t = (rng.randrange(dom), rng.randrange(dom))
                if t in live:
                    continue
                live.add(t)
                events[t] = 1
        batches.append([(s, a, b) for (a, b), s in events.items()])
    return batches


@pytest.mark.parametrize("engine_cls", [SparkStandardCP, SparkFirstOrderHIVM])
def test_batch_deltas_match_core(spark, engine_cls):
    from collections import Counter

    bq = hop3_full()
    cq = bq.cq
    eng = engine_cls(spark, cq, atom_filters=spark_atom_filters(cq))
    core = CrownEngine(cq)
    for batch in batched_graph_events(n_batches=3, per_batch=30, seed=11):
        net = Counter()
        for s, a, b in batch:
            for sg, t in core.apply(Update("G", (a, b), s > 0)):
                net[t] += sg
        sd = spark.createDataFrame(pd.DataFrame(batch, columns=["sign", "a", "b"]))
        rows = eng.process_batch({"G": sd}).collect()
        got_p = {tuple(r[x] for x in cq.output) for r in rows if r["sign"] > 0}
        got_m = {tuple(r[x] for x in cq.output) for r in rows if r["sign"] < 0}
        assert got_p == {t for t, c in net.items() if c > 0}
        assert got_m == {t for t, c in net.items() if c < 0}


def test_spark_cp_vs_duckdb(spark):
    bq = hop3_full()
    g = graph_edges_pdf(sf=0.002, seed=6)
    eng = SparkStandardCP(spark, bq.cq, atom_filters=spark_atom_filters(bq.cq))
    eng.process_batch(
        {"G": spark.createDataFrame(g.assign(sign=1)[["sign", "src", "dst"]])}
    )
    assert_equivalent(eng.full_result(), bq.sql, G=g)


def test_spark_cp_state_superlinear(spark):
    """The baseline materializes the quadratic intermediate view —
    exactly what Fig. 12 attributes its slowdown to."""
    bq = hop3_proj()
    n = 25
    edges = [(i, 0) for i in range(1, n + 1)] + [(0, n + j) for j in range(1, n + 1)]
    cp = SparkStandardCP(spark, bq.cq)
    crown = CrownEngine(bq.cq)
    sd = pd.DataFrame([(1, a, b) for a, b in edges], columns=["sign", "a", "b"])
    cp.process_batch({"G": spark.createDataFrame(sd)})
    crown.bulk_load({"G": edges})
    assert cp.state_rows() > n * n  # the n² view is materialized
    assert crown.space() < 20 * len(edges)  # CROWN stays linear (Lemma 4.1)


def test_hivm_vs_duckdb(spark):
    bq = hop3_proj()
    g = graph_edges_pdf(sf=0.001, seed=8)
    eng = SparkFirstOrderHIVM(spark, bq.cq)
    eng.process_batch(
        {"G": spark.createDataFrame(g.assign(sign=1)[["sign", "src", "dst"]])}
    )
    assert_equivalent(eng.full_result(), bq.sql, G=g)

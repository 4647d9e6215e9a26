"""SparkCrown (micro-batch join-free maintenance) — correctness against
the tuple engine and the DuckDB oracle."""
import random

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.bench.queries import hop3_full, hop3_proj, star
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree
from repro.oracle import assert_equivalent
from repro.spark.crown_spark import SparkCrown
from repro.streams.sequences import Update
from repro.synth_data import graph_edges_pdf

pytestmark = pytest.mark.spark


def atom_filters_for(cq):
    out = {}
    for rel, _pred in cq.selections:
        r = cq.relation(rel)
        out[rel] = F.col(r.attrs[1]) % 10 == 0
    return out


def batched_graph_events(n_batches=3, per_batch=35, dom=12, seed=0):
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


@pytest.mark.parametrize("factory", [hop3_full, hop3_proj, star], ids=lambda f: f.__name__)
def test_batch_deltas_match_core_engine(spark, factory):
    bq = factory()
    cq = bq.cq
    sc = SparkCrown(spark, cq, best_tree(cq), atom_filters=atom_filters_for(cq))
    core = CrownEngine(cq)
    from collections import Counter

    for batch in batched_graph_events(seed=hash(cq.name) % 100):
        net = Counter()
        for s, a, b in batch:
            for sg, t in core.apply(Update("G", (a, b), s > 0)):
                net[t] += sg
        sd = spark.createDataFrame(
            pd.DataFrame(batch, columns=["sign", "a", "b"])
        )
        rows = sc.process_batch({"G": sd}).collect()
        got_p = {tuple(r[x] for x in cq.output) for r in rows if r["sign"] > 0}
        got_m = {tuple(r[x] for x in cq.output) for r in rows if r["sign"] < 0}
        assert got_p == {t for t, c in net.items() if c > 0}
        assert got_m == {t for t, c in net.items() if c < 0}
    assert {tuple(r) for r in sc.full_result().collect()} == core.full_result_set()


def test_full_result_vs_duckdb_oracle(spark):
    """End-state result equality via the DuckDB oracle on synthetic
    graph data (3-hop full join with the 10% endpoint filter)."""
    bq = hop3_full()
    cq = bq.cq
    g = graph_edges_pdf(sf=0.002, seed=5)
    sc = SparkCrown(spark, cq, atom_filters=atom_filters_for(cq))
    sd = spark.createDataFrame(
        g.assign(sign=1)[["sign", "src", "dst"]]
    )
    sc.process_batch({"G": sd})
    assert_equivalent(sc.full_result(), bq.sql, G=g)


def test_state_stays_linear(spark):
    bq = hop3_proj()
    n = 25
    edges = [(i, 0) for i in range(1, n + 1)] + [(0, n + j) for j in range(1, n + 1)]
    sc = SparkCrown(spark, bq.cq)
    sd = spark.createDataFrame(
        pd.DataFrame([(1, a, b) for a, b in edges], columns=["sign", "a", "b"])
    )
    sc.process_batch({"G": sd})
    # |G1 ⋈ G2| = n² = 625, but CROWN state is linear in |G| (Lemma 4.1)
    assert sc.state_rows() < 20 * len(edges)


def test_empty_batch_is_noop(spark):
    bq = hop3_proj()
    sc = SparkCrown(spark, bq.cq)
    out = sc.process_batch({})
    assert out.count() == 0

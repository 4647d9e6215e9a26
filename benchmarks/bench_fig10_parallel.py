"""Fig. 10 — distributed runtime vs parallelism p (Spark).

HyperCube-partitioned CROWN on the 4-Hop join-project stream for
p ∈ {1, 2, 4}; the Spark micro-batch baselines (Flink proxy /
DBToaster-Spark proxy) process the same stream in batches. Paper
shape: CROWN scales near-linearly for small p and outruns both
baselines by orders of magnitude.
"""
import random

import pandas as pd
import pytest

from repro.bench.queries import hop4_proj
from repro.cq.join_tree import best_tree
from repro.spark.partitioned import PartitionedCrown

pytestmark = pytest.mark.spark

N_EVENTS = 1200


def stream_pdf(n=N_EVENTS, dom=60, seed=3):
    rng = random.Random(seed)
    rows, live, seq = [], set(), 0
    for _ in range(n):
        if live and rng.random() < 0.35:
            t = rng.choice(sorted(live))
            live.discard(t)
            sign = -1
        else:
            t = (rng.randrange(dom), rng.randrange(dom))
            if t in live:
                continue
            live.add(t)
            sign = 1
        rows.append((seq, "G", sign, t[0], t[1]))
        seq += 1
    return pd.DataFrame(rows, columns=["seq", "stream", "sign", "v0", "v1"])


@pytest.mark.parametrize("p", [1, 2, 4])
def test_fig10_partitioned_crown(benchmark, spark, p):
    bq = hop4_proj()
    tree = best_tree(bq.cq)
    updates = stream_pdf()

    def once():
        pc = PartitionedCrown(spark, bq.cq, p=p, tree=tree)
        return pc.run_stream(updates)

    res = benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info.update(
        shards=len(res),
        max_shard_ms=round(res.millis.max(), 1),
        total_deltas=int(res.deltas.sum()),
    )


@pytest.mark.parametrize("engine", ["spark_cp", "spark_hivm"])
def test_fig10_spark_baselines(benchmark, spark, engine):
    from pyspark.sql import functions as F

    from repro.spark.baseline_cp import SparkStandardCP
    from repro.spark.hivm_spark import SparkFirstOrderHIVM

    bq = hop4_proj()
    updates = stream_pdf(n=400)
    flt = {
        rel: (F.col(bq.cq.relation(rel).attrs[1]) % 10 == 0)
        for rel, _ in bq.cq.selections
    }
    n_batches = 4
    chunks = [
        updates.iloc[i * len(updates) // n_batches : (i + 1) * len(updates) // n_batches]
        for i in range(n_batches)
    ]

    def once():
        eng = (
            SparkStandardCP(spark, bq.cq, atom_filters=flt)
            if engine == "spark_cp"
            else SparkFirstOrderHIVM(spark, bq.cq, atom_filters=flt)
        )
        total = 0
        for ch in chunks:
            sd = spark.createDataFrame(ch[["sign", "v0", "v1"]])
            total += eng.process_batch({"G": sd}).count()
        return total

    deltas = benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info.update(deltas=int(deltas), batches=n_batches)

"""HyperCube-partitioned CROWN — the distributed mode (§8.1).

The paper dispatches tuples "in a load-balanced fashion … borrowing
from massively parallel algorithms, such as HyperCube". For a
free-connex tree with root attributes ``g``, every query result has a
``g``-value, so sharding the stream by ``hash(g) mod p`` and
replicating atoms that do not contain ``g`` yields ``p`` independent
CROWN instances whose delta streams are provably disjoint and whose
union is exactly the global delta stream.

Spark mapping: the dispatch plan explodes each event into per-atom
rows routed to partitions, and each shard replays its sub-stream
inside ``applyInPandas`` with a :class:`CrownEngine` as the per-group
state — the sanctioned PySpark stand-in for a custom stateful
operator (DESIGN.md, "Why no JVM/Catalyst physical operator"). Each atom tuple travels as one JSON
string, so ``None``, ints and strings reach the shard as they were
(a pandas or Spark column would coerce mixed values).
"""
from __future__ import annotations

import json
import time
import zlib

import pandas as pd
from pyspark.sql import SparkSession

from repro.cq.join_tree import JoinTree, best_tree
from repro.cq.query import CQ

PLAN_SCHEMA = "pid long, seq long, atom string, sign long, vals string"
OUT_SCHEMA = (
    "pid long, updates long, deltas long, millis double, payload string"
)


def _stable_hash(vals: list) -> int:
    """Deterministic across processes (unlike str hash). Integral floats
    hash as ints, because the engine joins ``3`` with ``3.0``."""
    key = [int(v) if isinstance(v, float) and v.is_integer() else v for v in vals]
    return zlib.crc32(json.dumps(key).encode())


def dispatch_plan(
    cq: CQ, tree: JoinTree, updates: pd.DataFrame, p: int
) -> pd.DataFrame:
    """Explode a stream (seq, stream, sign, v0..vk) into per-atom rows
    (pid, seq, atom, sign, vals) routed to partitions: atoms containing
    the root attributes hash on them; others are replicated to every
    partition. ``vals`` is the atom tuple as a JSON array; missing
    values (NaN/None) become ``null``."""
    root_attrs = tree.node(tree.root).attrs
    routes = {}
    for atom in cq.relations:
        if root_attrs and set(root_attrs) <= set(atom.attrs):
            routes[atom.name] = [atom.attrs.index(a) for a in root_attrs]
        else:
            routes[atom.name] = None
    vcols = [c for c in updates.columns if c.startswith("v")]
    vals = updates[vcols].astype(object).where(updates[vcols].notna(), None)
    rows: list[tuple] = []
    for seq, stream, sign, tvals in zip(
        updates.seq, updates.stream, updates.sign, vals.itertuples(index=False, name=None)
    ):
        for atom in cq.atoms_of_stream(stream):
            t = tvals[: len(atom.attrs)]
            pos = routes[atom.name]
            if pos is None:
                pids = range(p)
            else:
                pids = (_stable_hash([t[i] for i in pos]) % p,)
            enc = json.dumps(t)
            rows.extend((pid, seq, atom.name, sign, enc) for pid in pids)
    return pd.DataFrame(rows, columns=["pid", "seq", "atom", "sign", "vals"])


class PartitionedCrown:
    """p independent CROWN shards behind one Spark job."""

    def __init__(
        self, spark: SparkSession, cq: CQ, p: int, tree: JoinTree | None = None
    ) -> None:
        self.spark = spark
        self.cq = cq
        self.p = p
        self.tree = tree if tree is not None else best_tree(cq)

    def run_stream(
        self, updates: pd.DataFrame, collect_deltas: bool = False
    ) -> pd.DataFrame:
        """Replay a full update stream distributed; returns per-shard
        (updates, deltas, millis[, payload]) rows.

        ``updates`` columns: seq, stream, sign, v0..vk (each event's
        tuple in the leading ``v`` columns).
        """
        plan = dispatch_plan(self.cq, self.tree, updates, self.p)
        cq, tree = self.cq, self.tree

        def run_shard(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:  # pragma: no cover
            from repro.core.engine import CrownEngine

            pdf = pdf.sort_values("seq")
            eng = CrownEngine(cq, tree)
            n_up, n_delta = 0, 0
            payload: list = []
            t0 = time.perf_counter()
            for atom, sign, vals in zip(pdf.atom, pdf.sign, pdf.vals):
                deltas = eng.apply_atom(atom, tuple(json.loads(vals)), sign > 0)
                n_up += 1
                n_delta += len(deltas)
                if collect_deltas:
                    payload.extend([s, list(v)] for s, v in deltas)
            ms = (time.perf_counter() - t0) * 1000
            return pd.DataFrame(
                {
                    "pid": [key[0]],
                    "updates": [n_up],
                    "deltas": [n_delta],
                    "millis": [ms],
                    "payload": [json.dumps(payload) if collect_deltas else ""],
                }
            )

        sdf = self.spark.createDataFrame(plan, schema=PLAN_SCHEMA)
        out = (
            sdf.repartition(self.p, "pid")
            .groupBy("pid")
            .applyInPandas(run_shard, schema=OUT_SCHEMA)
        )
        return out.toPandas()

"""HyperCube-partitioned CROWN: shard-union == single-engine stream."""
import json
import random
import warnings
from collections import Counter

import pandas as pd
import pytest

from repro.bench.harness import snb_stream
from repro.bench.queries import hop3_full, hop3_proj, hop4_proj, snb_q1, snb_q2, star
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree
from repro.oracle import assert_equivalent
from repro.spark.partitioned import PartitionedCrown, dispatch_plan
from repro.streams.sequences import Update
from repro.synth_data import graph_edges_pdf

pytestmark = pytest.mark.spark


def make_stream(n=250, dom=10, seed=7):
    """Random inserts/deletes of ``G`` edges; deletes hit live edges."""
    rng = random.Random(seed)
    updates, live = [], set()
    for _ in range(n):
        if live and rng.random() < 0.3:
            t = rng.choice(sorted(live))
            live.discard(t)
            updates.append(Update("G", t, False))
        else:
            t = (rng.randrange(dom), rng.randrange(dom))
            if t in live:
                continue
            live.add(t)
            updates.append(Update("G", t, True))
    return updates


def events_frame(updates):
    """``run_stream`` input (seq, stream, sign, v0..vk); shorter tuples
    leave the trailing ``v`` columns empty."""
    k = max((len(u.tuple) for u in updates), default=0)
    return pd.DataFrame(
        [(i, u.stream, u.sign, *u.tuple) for i, u in enumerate(updates)],
        columns=["seq", "stream", "sign", *(f"v{j}" for j in range(k))],
    )


def expected_deltas(cq, updates):
    eng = CrownEngine(cq, best_tree(cq))
    exp = Counter()
    for u in updates:
        exp.update(eng.apply(u))
    return exp


# (query, stream) inputs: the graph queries with their FILTER OVER
# selections, SNB Q1 (mixed int/string columns) and Q2 (its streams
# only, so pandas stores m_c_replyof as floats with NaN for NULL, which
# the IS NULL selection must still see), an insert-only load also
# checked against DuckDB, and an empty stream.
G_LOAD = graph_edges_pdf(sf=0.002, seed=5)
SNB = snb_stream(sf=0.005, window_days=60, seed=3).updates
CASES = {
    "hop4_proj": (hop4_proj, make_stream()),
    "hop3_full": (hop3_full, make_stream(dom=12, seed=11)),
    "hop3_proj": (hop3_proj, make_stream(dom=12, seed=12)),
    "star": (star, make_stream(dom=12, seed=13)),
    "snb_q1": (snb_q1, SNB),
    "snb_q2": (snb_q2, [u for u in SNB if u.stream != "person"]),
    "hop3_full_load": (
        hop3_full,
        [Update("G", t, True) for t in G_LOAD.itertuples(index=False, name=None)],
    ),
    "empty": (hop3_proj, []),
}


@pytest.mark.parametrize("p", [1, 4])
def test_partitioned_matches_single(spark, p):
    for case, (factory, updates) in CASES.items():
        bq = factory()
        exp = expected_deltas(bq.cq, updates)
        assert bool(exp) == (case != "empty"), case
        pc = PartitionedCrown(spark, bq.cq, p=p, tree=best_tree(bq.cq))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = pc.run_stream(events_frame(updates), collect_deltas=True)
        # the shard function's type hints name the pandas UDF's eval type
        assert not [w for w in caught if "TYPE_HINT_SHOULD_BE_SPECIFIED" in str(w.message)], case
        got = Counter()
        for payload in res.payload:
            for s, v in json.loads(payload):
                got[(s, tuple(v))] += 1
        assert got == exp, case
        assert res.deltas.sum() == sum(exp.values()), case
        assert len(res) <= p, case
        if case == "hop3_full_load":
            assert {s for s, _ in got} == {1}
            result = pd.DataFrame([v for _, v in got], columns=list(bq.cq.output))
            assert_equivalent(spark.createDataFrame(result), bq.sql, G=G_LOAD)


def test_dispatch_replicates_non_root_atoms(spark):
    bq = hop4_proj()
    tree = best_tree(bq.cq)
    updates = events_frame(make_stream(n=20))
    plan = dispatch_plan(bq.cq, tree, updates, p=4)
    # root is [C]: G2/G3 contain C → hashed once; G1/G4 → replicated ×4
    per_atom = plan.groupby("atom").size()
    n_events = len(updates)
    assert per_atom["G1"] == 4 * n_events and per_atom["G4"] == 4 * n_events
    assert per_atom["G2"] == n_events and per_atom["G3"] == n_events


def test_dispatch_shards_are_disjoint_on_root_attr(spark):
    bq = hop3_full()
    tree = best_tree(bq.cq)
    updates = events_frame(make_stream(n=40))
    root_attrs = tree.node(tree.root).attrs
    owner = {}
    # root [B] is G1's v1 and G2's v0; a float v1 column must not move
    # its keys, because the engine joins 3 with 3.0
    for frame in (updates, updates.astype({"v1": float})):
        plan = dispatch_plan(bq.cq, tree, frame, p=4)
        for r in plan.itertuples(index=False):
            atom_rel = bq.cq.relation(r.atom)
            if not set(root_attrs) <= set(atom_rel.attrs):
                continue
            t = json.loads(r.vals)
            key = tuple(t[atom_rel.attrs.index(a)] for a in root_attrs)
            # every root-key value lands on exactly one partition, whichever
            # atom (column) carries it
            assert owner.setdefault(key, r.pid) == r.pid

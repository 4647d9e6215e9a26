"""HyperCube-partitioned CROWN: shard-union == single-engine stream."""
import json
import random
from collections import Counter

import pandas as pd
import pytest

from repro.bench.queries import hop3_full, hop4_proj
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree
from repro.spark.partitioned import PartitionedCrown, dispatch_plan
from repro.streams.sequences import Update

pytestmark = pytest.mark.spark


def make_stream(n=250, dom=10, seed=7):
    rng = random.Random(seed)
    rows, live, seq = [], set(), 0
    for _ in range(n):
        if live and rng.random() < 0.3:
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


def expected_deltas(cq, updates):
    eng = CrownEngine(cq, best_tree(cq))
    exp = Counter()
    for r in updates.itertuples(index=False):
        for s, d in eng.apply(Update("G", (r.v0, r.v1), r.sign > 0)):
            exp[(s, d)] += 1
    return exp


@pytest.mark.parametrize("p", [1, 4])
def test_partitioned_matches_single(spark, p):
    bq = hop4_proj()
    updates = make_stream()
    exp = expected_deltas(bq.cq, updates)
    pc = PartitionedCrown(spark, bq.cq, p=p, tree=best_tree(bq.cq))
    res = pc.run_stream(updates, collect_deltas=True)
    got = Counter()
    for payload in res.payload:
        for s, v in json.loads(payload):
            got[(s, tuple(v))] += 1
    assert got == exp
    assert len(res) <= p


def test_dispatch_replicates_non_root_atoms(spark):
    bq = hop4_proj()
    tree = best_tree(bq.cq)
    updates = make_stream(n=20)
    plan = dispatch_plan(bq.cq, tree, updates, p=4)
    # root is [C]: G2/G3 contain C → hashed once; G1/G4 → replicated ×4
    per_atom = plan.groupby("atom").size()
    n_events = len(updates)
    assert per_atom["G1"] == 4 * n_events and per_atom["G4"] == 4 * n_events
    assert per_atom["G2"] == n_events and per_atom["G3"] == n_events


def test_dispatch_shards_are_disjoint_on_root_attr(spark):
    bq = hop3_full()
    tree = best_tree(bq.cq)
    updates = make_stream(n=40)
    plan = dispatch_plan(bq.cq, tree, updates, p=4)
    root_attrs = tree.node(tree.root).attrs
    for atom in plan.atom.unique():
        atom_rel = bq.cq.relation(atom)
        if not set(root_attrs) <= set(atom_rel.attrs):
            continue
        sub = plan[plan.atom == atom]
        key_cols = [f"v{atom_rel.attrs.index(a)}" for a in root_attrs]
        # every root-key value lands on exactly one partition
        assert (sub.groupby(key_cols).pid.nunique() == 1).all()

"""Golden behaviour of CrownEngine on small fixed-seed benchmark streams.

The expected numbers were recorded from the dict-based engine that
preceded the compiled slot plans. A change to the engine's
representation or speed must reproduce them exactly: the delta
multiset (count plus an order-independent digest), the number of
counter changes, ``space()`` and the full result half-way through the
stream, and ``space()`` at the end.
"""
import hashlib

import pytest

from repro.bench import harness, queries
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree


def digest(items) -> int:
    """Order-independent multiset digest: sum of per-item hashes mod 2^64."""
    h = 0
    for x in items:
        h += int.from_bytes(hashlib.sha256(repr(x).encode()).digest()[:8], "big")
    return h % (1 << 64)


def _graph(seed):
    return queries.hop4_proj(), harness.graph_stream(sf=0.002, window=150, seed=seed)


def _snb(seed):
    return queries.snb_q2(), harness.snb_stream(sf=0.01, window_days=60, seed=seed)


GOLDEN = {
    # (workload, seed): (updates, deltas, delta digest, counter_changes,
    #                    mid space, mid |Q(D)|, mid Q(D) digest, end space)
    ("hop4_proj", 3): (2000, 12752, 2240520467916956010, 8076,
                       1544, 164, 13694947866882273766, 0),
    ("hop4_proj", 4): (2000, 10524, 16044850850485029819, 8004,
                       1484, 124, 7985310442650025859, 0),
    ("snb_q2", 3): (5732, 1288, 6662407940618861636, 7657,
                    1840, 19, 16893564346050146555, 30),
    ("snb_q2", 4): (5726, 938, 11636520867153800279, 7501,
                    1706, 6, 15865028006069357425, 30),
}


@pytest.mark.parametrize("workload,seed", sorted(GOLDEN))
def test_golden_stream(workload, seed):
    bq, seq = (_graph if workload == "hop4_proj" else _snb)(seed)
    eng = CrownEngine(bq.cq, best_tree(bq.cq), post_filter=bq.post_filter)
    deltas = []
    mid = len(seq.updates) // 2
    for i, u in enumerate(seq):
        if i == mid:
            full = list(eng.enumerate_full())
            mid_state = (eng.space(), len(full), digest(full))
        deltas.extend(eng.apply(u))
    got = (
        len(seq.updates), len(deltas), digest(deltas), eng.stats["counter_changes"],
        *mid_state, eng.space(),
    )
    assert got == GOLDEN[(workload, seed)]

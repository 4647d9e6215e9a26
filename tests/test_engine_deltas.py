"""Exhaustive randomized delta checks: CROWN vs brute force (§5.2).

Every benchmark query shape × several seeds × mixed insert/delete
streams; each update's emitted delta is compared to Q(D±t) − Q(D)
recomputed from scratch, and witness disjointness (no duplicate
deltas) is asserted inside the fuzzer.
"""
import pytest

from repro.bench.queries import GRAPH_QUERIES, SNB_QUERIES
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ
from repro.streams.sequences import Update
from tests._util import expected_result, fuzz_engine_vs_naive, fuzz_streams, snb_tuple_maker

GRAPH_ARITY = {"G": 2}
COMB_ARITY = {"G": 2, "V1": 1, "V2": 1}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(GRAPH_QUERIES))
def test_graph_query_deltas(name, seed):
    bq = GRAPH_QUERIES[name]()
    arity = COMB_ARITY if name == "2comb" else GRAPH_ARITY
    dom = 8 if "4hop" in name else 5
    fuzz_engine_vs_naive(
        lambda: CrownEngine(bq.cq, post_filter=bq.post_filter),
        bq.cq,
        arity,
        steps=300,
        dom=dom,
        seed=seed,
        post_filter=bq.post_filter,
    )


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(SNB_QUERIES))
def test_snb_query_deltas(name, seed):
    bq = SNB_QUERIES[name]()
    used = sorted({r.stream for r in bq.cq.relations})
    fuzz_engine_vs_naive(
        lambda: CrownEngine(bq.cq, post_filter=bq.post_filter),
        bq.cq,
        {s: 0 for s in used},
        steps=300,
        seed=seed,
        post_filter=bq.post_filter,
        tuple_maker=snb_tuple_maker,
    )


@pytest.mark.parametrize("name", ["3hop_proj", "4hop_proj", "star", "snb_q1", "snb_q2"])
def test_every_tree_gives_same_deltas(name):
    """The delta stream is plan-independent: every valid free-connex
    tree of the query yields identical deltas. SNB Q2's trees include
    a generalized root with three children and the self-joined knows;
    SNB Q1's include boundary children with extra output attributes."""
    bq = {**GRAPH_QUERIES, **SNB_QUERIES}[name]()
    arity, maker = fuzz_streams(bq)
    trees = free_connex_trees(bq.cq)
    if bq.kind == "graph":
        trees = trees[:6]
    for i, tree in enumerate(trees):
        fuzz_engine_vs_naive(
            lambda: CrownEngine(bq.cq, tree, post_filter=bq.post_filter),
            bq.cq,
            arity,
            steps=150,
            dom=4,
            seed=100 + i,
            post_filter=bq.post_filter,
            tuple_maker=maker,
        )


def _hop4_atoms_with_output(output):
    cq = GRAPH_QUERIES["4hop_proj"]().cq
    return CQ(cq.relations, output, f"4hop_{''.join(output) or 'bool'}", cq.selections)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "output",
    [(), ("B",), ("D", "A", "C", "B")],
    ids=["boolean", "single_attr", "reordered"],
)
def test_output_shapes(output, seed):
    """Slot-plan edge cases: an empty output projection (Boolean query),
    a one-attribute projection, and an output order unlike tree order."""
    cq = _hop4_atoms_with_output(output)
    fuzz_engine_vs_naive(
        lambda: CrownEngine(cq), cq, GRAPH_ARITY, steps=300, dom=6, seed=seed, check_full=10
    )


@pytest.mark.parametrize("name", ["4hop_proj", "star", "snb_q2", "snb_q3"])
def test_bulk_load_then_mixed_updates(name):
    """bulk_load (deltas suppressed, live views rebuilt from one full
    enumeration) followed by mixed inserts and deletes."""
    import random

    bq = {**GRAPH_QUERIES, **SNB_QUERIES}[name]()
    arity, maker = fuzz_streams(bq)
    rng = random.Random(9)
    make = maker or (lambda r, s: tuple(r.randrange(6) for _ in range(arity[s])))
    initial = {s: {make(rng, s) for _ in range(25)} for s in arity}
    fuzz_engine_vs_naive(
        lambda: CrownEngine(bq.cq, post_filter=bq.post_filter),
        bq.cq,
        arity,
        steps=200,
        dom=6,
        seed=1,
        post_filter=bq.post_filter,
        tuple_maker=maker,
        check_full=20,
        initial=initial,
    )


@pytest.mark.parametrize("seed", range(3))
def test_insertion_only_then_deletion_only(seed):
    """Insert a full phase then delete everything: Q must return to ∅
    and the signed delta stream must telescope to zero."""
    from collections import Counter

    bq = GRAPH_QUERIES["4hop_proj"]()
    eng = CrownEngine(bq.cq)
    import random

    rng = random.Random(seed)
    edges = {(rng.randrange(6), rng.randrange(6)) for _ in range(60)}
    net = Counter()
    for e in sorted(edges):
        for s, t in eng.apply(Update("G", e, True)):
            net[t] += s
    assert eng.full_result_set() == {t for t, c in net.items() if c == 1}
    for e in sorted(edges):
        for s, t in eng.apply(Update("G", e, False)):
            net[t] += s
    assert eng.full_result_set() == set()
    assert all(c == 0 for c in net.values())


def test_fifo_window_stream_deltas():
    """Sliding-window (FIFO) stream on 3-hop: spot-check final state."""
    from repro.streams.sequences import fifo_window_sequence

    bq = GRAPH_QUERIES["3hop_full"]()
    import random

    rng = random.Random(0)
    rows = [("G", (rng.randrange(6), rng.randrange(6))) for _ in range(120)]
    # dedupe rows (set semantics: repeated inserts are no-ops anyway)
    seen, uniq = set(), []
    for s, t in rows:
        if t not in seen:
            seen.add(t)
            uniq.append((s, t))
    seq = fifo_window_sequence(uniq, w=25)
    eng = CrownEngine(bq.cq, post_filter=bq.post_filter)
    dbs = {"G": set()}
    cur = set()
    for u in seq:
        (dbs["G"].add if u.is_insert else dbs["G"].discard)(u.tuple)
        deltas = eng.apply(u)
        new = expected_result(bq.cq, dbs, bq.post_filter)
        assert {t for s, t in deltas if s > 0} == new - cur
        assert {t for s, t in deltas if s < 0} == cur - new
        cur = new

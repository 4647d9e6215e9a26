"""Shared test helpers: randomized streams and the naive-oracle fuzzer."""
from __future__ import annotations

import random

from repro.core.naive import evaluate
from repro.cq.query import CQ
from repro.streams.sequences import Update


def selected_db(cq: CQ, stream_db: dict[str, set]) -> dict[str, set]:
    """Per-atom database: fan out streams to copies, apply selections."""
    db = {}
    for r in cq.relations:
        base = set(stream_db.get(r.stream, set()))
        sel = [p for rel, p in cq.selections if rel == r.name]
        db[r.name] = {t for t in base if all(p(t) for p in sel)}
    return db


def expected_result(cq: CQ, stream_db: dict[str, set], post_filter=None) -> set:
    out = evaluate(cq, selected_db(cq, stream_db))
    if post_filter is not None:
        names = cq.output
        out = {t for t in out if post_filter(dict(zip(names, t)))}
    return out


def snb_tuple_maker(rng, stream):
    """Small-domain SNB-lite tuples for ``random_updates`` (60% NULL replyof)."""
    if stream == "message":
        return (
            rng.randrange(6),
            rng.randrange(6),
            None if rng.random() < 0.6 else rng.randrange(6),
        )
    if stream == "person":
        return (rng.randrange(6), f"fn{rng.randrange(3)}", f"ln{rng.randrange(3)}")
    if stream == "tag":
        return (rng.randrange(6), f"tag{rng.randrange(6)}")
    if stream == "knows":
        return (rng.randrange(8), rng.randrange(8))
    if stream == "message_tag":
        return (rng.randrange(6), rng.randrange(6))
    raise KeyError(stream)


def fuzz_streams(bq):
    """(stream arities, tuple maker) for ``random_updates`` over the
    streams of a benchmark query."""
    if bq.kind == "snb":
        return {r.stream: 0 for r in bq.cq.relations}, snb_tuple_maker
    return {r.stream: len(r.attrs) for r in bq.cq.relations}, None


def random_updates(
    streams_arity: dict[str, int],
    steps: int,
    dom: int = 5,
    seed: int = 0,
    insert_bias: float = 0.7,
    tuple_maker=None,
):
    """Yield (stream, tuple, is_insert) mixing inserts and deletes."""
    rng = random.Random(seed)
    dbs: dict[str, set] = {s: set() for s in streams_arity}
    for _ in range(steps):
        s = rng.choice(sorted(streams_arity))
        if tuple_maker is not None:
            t = tuple_maker(rng, s)
        else:
            t = tuple(rng.randrange(dom) for _ in range(streams_arity[s]))
        ins = (t not in dbs[s]) if rng.random() < insert_bias else rng.random() < 0.5
        (dbs[s].add if ins else dbs[s].discard)(t)
        yield s, t, ins


def fuzz_engine_vs_naive(
    make_engine,
    cq: CQ,
    streams_arity: dict[str, int],
    steps: int = 300,
    dom: int = 5,
    seed: int = 0,
    post_filter=None,
    tuple_maker=None,
    check_full=None,
    initial=None,
):
    """Drive an engine with random updates; assert every delta against
    brute-force recomputation. ``initial`` (stream -> tuples) is
    bulk-loaded first. Returns the engine for further checks."""
    eng = make_engine()
    dbs: dict[str, set] = {s: set((initial or {}).get(s, ())) for s in streams_arity}
    cur: set = set()
    if initial is not None:
        eng.bulk_load(initial)
        cur = expected_result(cq, dbs, post_filter)
        assert check_full_result(eng) == cur, f"{cq.name}: bulk_load mismatch"
    for step, (s, t, ins) in enumerate(
        random_updates(streams_arity, steps, dom, seed, tuple_maker=tuple_maker)
    ):
        (dbs[s].add if ins else dbs[s].discard)(t)
        deltas = eng.apply(Update(s, t, ins))
        new = expected_result(cq, dbs, post_filter)
        got_add = {x for sg, x in deltas if sg > 0}
        got_del = {x for sg, x in deltas if sg < 0}
        assert len(deltas) == len(got_add) + len(got_del), (
            f"{cq.name} step {step}: duplicate deltas {deltas}"
        )
        assert got_add == new - cur, (
            f"{cq.name} step {step} {s} {t} ins={ins}: "
            f"+got {sorted(got_add)} expected {sorted(new - cur)}"
        )
        assert got_del == cur - new, (
            f"{cq.name} step {step} {s} {t} ins={ins}: "
            f"-got {sorted(got_del)} expected {sorted(cur - new)}"
        )
        if check_full is not None and step % check_full == 0:
            assert check_full_result(eng) == new, f"{cq.name} step {step}: full mismatch"
        cur = new
    return eng, dbs, cur


def check_full_result(eng) -> set:
    return eng.full_result_set()

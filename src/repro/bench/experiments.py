"""The §8 experiment registry: each figure's engines, workloads and sizes.

A figure (``FIGURES``) is a list of :class:`Cell`\\ s, one engine on one
workload each, built at one of two scales, ``"quick"`` or ``"full"``
(``SIZES``). ``jobs/run.py`` prints a figure's cells as its table(s);
``benchmarks/bench_experiments.py`` times every quick cell.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Any, Callable

import pandas as pd

from repro.bench.harness import RunResult, graph_stream, run_engine, snb_stream, vertex_rows
from repro.bench.queries import (
    GRAPH_QUERIES,
    SNB_QUERIES,
    BenchQuery,
    dumbbell_full,
    dumbbell_proj,
    hop3_full,
    hop4_proj,
    snb_q1,
)
from repro.core.aggregates import DistinctCountAggregator
from repro.core.baseline_cp import StandardCPEngine
from repro.core.enclosure import enclosureness, nested_sequence
from repro.core.engine import CrownEngine
from repro.core.hivm import FirstOrderHIVMEngine
from repro.cq.ghd import dumbbell_ghd
from repro.cq.join_tree import JoinTree, best_tree, free_connex_trees
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update, UpdateSequence
from repro.synth_data import graph_edges_pdf

TIME_LIMIT_S = 120.0  # per-cell cap on an engine run (the paper's: 4 h)

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "fig7": {
        "quick": {"sf": 0.004, "window": 400, "snb_sf": 0.01},
        "full": {"sf": 0.01, "window": 1500, "snb_sf": 0.02},
    },
    "fig8": {
        "quick": {"sfs": (0.01, 0.02)},
        "full": {"sfs": (0.01, 0.02, 0.05, 0.1, 0.2)},
    },
    "fig9": {
        "quick": {"lambdas": (1, 4, 16)},
        "full": {"lambdas": (1, 2, 4, 8, 16, 32, 64)},
    },
    "fig10": {
        "quick": {"events": 1500, "dom": 80, "ps": (1, 4), "baseline_events": 300},
        "full": {"events": 6000, "dom": 200, "ps": (1, 2, 4, 8), "baseline_events": 1000},
    },
    "fig11": {
        "quick": {"sf": 0.004, "window": 500},
        "full": {"sf": 0.01, "window": 1500},
    },
    "fig12": {
        "quick": {"sf": 0.004, "window": 500, "pcts": (1, 10, 100)},
        "full": {"sf": 0.01, "window": 1500, "pcts": (1, 5, 20, 100)},
    },
}

# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

ENGINES: dict[str, Callable[[BenchQuery, int | None], Any]] = {
    # CROWN; a cyclic query runs on its GHD (§7.1)
    "crown": lambda bq, _rows: (dumbbell_ghd if bq.cyclic else CrownEngine)(
        bq.cq, post_filter=bq.post_filter
    ),
    # Flink proxy: standard change propagation with a full result view
    "flink_cp": lambda bq, rows: StandardCPEngine(
        bq.cq, post_filter=bq.post_filter, max_view_rows=rows
    ),
    # DBToaster proxy: first-order HIVM
    "dbtoaster_hivm": lambda bq, rows: FirstOrderHIVMEngine(
        bq.cq, post_filter=bq.post_filter, max_view_rows=rows
    ),
    # Trill proxy: standard change propagation emitting only deltas
    "trill_delta": lambda bq, rows: StandardCPEngine(
        bq.cq, post_filter=bq.post_filter, delta_only=True, max_view_rows=rows
    ),
}


def make_engine(name: str, bq: BenchQuery, max_view_rows: int | None = None):
    """Engine ``name`` of :data:`ENGINES` on ``bq``. ``max_view_rows`` is
    the baselines' OOM guard; CROWN has none."""
    return ENGINES[name](bq, max_view_rows)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A query, its stream, updates applied untimed before the stream,
    and the baselines' OOM guard."""

    bq: BenchQuery
    seq: UpdateSequence
    preload: tuple[Update, ...] = ()
    max_view_rows: int | None = None


# a figure's cells share their streams
@lru_cache(maxsize=8)
def _graph(sf: float, window: int | None) -> UpdateSequence:
    return graph_stream(sf=sf, window=window)


@lru_cache(maxsize=8)
def _snb(sf: float) -> UpdateSequence:
    return snb_stream(sf=sf, window_days=90)


FIG7_QUERIES: dict[str, Callable[[], BenchQuery]] = {
    **GRAPH_QUERIES,
    "dumbbell_full": dumbbell_full,
    "dumbbell_proj": dumbbell_proj,
    **SNB_QUERIES,
}


def comb_preload(bq: BenchQuery, sf: float) -> tuple[Update, ...]:
    """2-Comb's unary endpoint relations V1 and V2 hold every vertex of
    the graph at ``sf``; other queries preload nothing."""
    if bq.cq.name != "2comb":
        return ()
    verts = vertex_rows(graph_edges_pdf(sf=sf))
    return tuple(Update(s, t, True) for _, t in verts for s in ("V1", "V2"))


def fig7_workload(query: str, sf: float, window: int, snb_sf: float) -> Workload:
    """Fig. 7's ``query`` on its FIFO window stream."""
    bq = FIG7_QUERIES[query]()
    if bq.kind == "snb":
        return Workload(bq, _snb(snb_sf), max_view_rows=5_000_000)
    if bq.cyclic:
        # the dumbbell's full-join output explodes on the dense graph, so
        # it runs at half scale; the baselines' flat 7-way plans get a
        # tighter guard
        return Workload(bq, _graph(sf / 2, window // 2), max_view_rows=2_000_000)
    return Workload(bq, _graph(sf, window), comb_preload(bq, sf), 5_000_000)


def last_hop_filtered(bq: BenchQuery, pct: int) -> BenchQuery:
    """``bq`` with its selections replaced by one that keeps ~``pct``% of
    the last hop's destination values (Fig. 12)."""
    last = bq.cq.relations[-1].name
    mod = max(1, round(100 / pct))
    cq = CQ(
        bq.cq.relations,
        bq.cq.output,
        f"{bq.cq.name}_keep{pct}",
        ((last, lambda t: int(t[1]) % mod == 0),),
    )
    sql = bq.sql.replace(f"{last}.dst % 10", f"{last}.dst % {mod}")
    return replace(bq, cq=cq, sql=sql)


def thm67_query() -> tuple[CQ, JoinTree]:
    """Theorem 6.7's π_{x1}(R1(x1, x2) ⋈ R2(x2)) on the tree with R2
    below R1, where each R2 event drives a P-UPDATE through R1."""
    cq = CQ(
        (Relation("R1", ("x1", "x2")), Relation("R2", ("x2",))),
        output=("x1",),
        name="thm67",
    )
    tree = next(
        t for t in free_connex_trees(cq) if "R2" in t.subtree(t.relation_node("R1"))
    )
    return cq, tree


def fig10_events(n: int, dom: int, seed: int = 3) -> pd.DataFrame:
    """Fig. 10's stream as a ``run_stream`` frame (seq, stream, sign, v0,
    v1): ``n`` events on ``G`` edges over ``dom`` vertices, each a
    deletion of a live edge with probability 0.35."""
    rng = random.Random(seed)
    rows, live = [], set()
    while len(rows) < n:
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
        rows.append((len(rows), "G", sign, *t))
    return pd.DataFrame(rows, columns=["seq", "stream", "sign", "v0", "v1"])


def net_batches(events: pd.DataFrame, n_batches: int) -> list[pd.DataFrame]:
    """``events`` cut into ``n_batches`` contiguous batches, each keeping
    only the last event per tuple. The Spark baselines take a batch's
    effective changes against the base as of the batch's start, so two
    events on one tuple in one batch would be misapplied."""
    key = ["stream", *(c for c in events.columns if c.startswith("v"))]
    n = len(events)
    return [
        events.iloc[i * n // n_batches : (i + 1) * n // n_batches].drop_duplicates(
            key, keep="last"
        )
        for i in range(n_batches)
    ]


def spark_atom_filters(cq: CQ) -> dict:
    """``cq``'s FILTER OVER selections (``keep10`` on the atom's second
    column) as Spark column predicates."""
    from pyspark.sql import functions as F

    return {rel: F.col(cq.relation(rel).attrs[1]) % 10 == 0 for rel, _ in cq.selections}


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One engine on one workload of a figure.

    ``load()`` builds the input, untimed; ``measure(input, time_limit)``
    runs the engine on it and returns the fields the cell fills in its
    ``table`` at ``row``. A failed run reads ``FAIL(reason)``.
    """

    figure: str
    table: str
    row: tuple[tuple[str, Any], ...]  # (column, value) pairs naming the row
    engine: str
    load: Callable[[], Any]
    measure: Callable[[Any, float | None], dict[str, Any]]
    spark: bool = False  # measure needs an active SparkSession

    @property
    def id(self) -> str:
        return "-".join(dict.fromkeys([self.figure, *(str(v) for _, v in self.row), self.engine]))


def replay(
    engine: str, w: Workload, time_limit: float | None = None, record_latency: bool = False
) -> RunResult:
    """A fresh ``engine`` replays ``w``; SNB Q4's deltas feed a fresh
    COUNT(DISTINCT) aggregator (§7.3)."""
    eng = make_engine(engine, w.bq, w.max_view_rows)
    for u in w.preload:
        eng.apply(u)
    consumer = None
    if w.bq.cq.name == "snb_q4_inner":
        consumer = DistinctCountAggregator(w.bq.cq, ("tname", "t"), "m")
    return run_engine(
        eng, w.seq, engine, w.bq.cq.name, time_limit_s=time_limit,
        record_latency=record_latency, consumer=consumer,
    )


def _verdict(res: RunResult, ok: str) -> str:
    return f"FAIL({res.failed.split(':')[0]})" if res.failed else ok


def _seconds(res: RunResult) -> str:
    return f"{res.seconds:.2f}s"


def _total_cell(fmt: Callable[[RunResult], str], engine: str, w: Workload, time_limit):
    res = replay(engine, w, time_limit)
    out = {"updates": len(w.seq), engine: _verdict(res, fmt(res))}
    if engine == "crown":
        out["deltas"] = res.deltas
    return out


def _latency_cell(engine: str, w: Workload, time_limit):
    res = replay(engine, w, time_limit, record_latency=True)
    lat = res.latencies
    q = len(lat) // 4
    first = sum(lat[:q]) / max(1, q)
    last = sum(lat[-q:]) / max(1, q)
    return {
        "avg_ms": round(res.avg_latency_ms, 4),
        "p99_ms": round(res.p99_latency_ms, 4),
        "q1_avg_ms": round(first, 4),
        "q4_avg_ms": round(last, 4),
        "trend": _verdict(res, "growing" if last > 3 * first + 1e-3 else "stable"),
    }


def _capabilities_cell(engine: str, bq: BenchQuery, _time_limit):
    row = make_engine(engine, bq).capabilities()
    return {k: ("yes" if v else "no") if isinstance(v, bool) else v for k, v in row.items()}


def _fig9_load(lam: int):
    cq, tree = thm67_query()
    seq = nested_sequence("R1", "R2", lam, scale=8)
    return cq, tree, seq, enclosureness(seq)


def _fig9_cell(inp, _time_limit):
    cq, tree, seq, measured = inp
    eng = CrownEngine(cq, tree, emit_deltas=False)
    t0 = time.perf_counter()
    eng.run(seq)
    secs = time.perf_counter() - t0
    n = eng.stats["updates"]
    return {
        "measured_lambda": round(measured, 2),
        "updates": n,
        "counter_changes_per_update": round(eng.stats["counter_changes"] / max(1, n), 2),
        "us_per_update": round(1e6 * secs / max(1, n), 2),
    }


def _active_spark():
    from pyspark.sql import SparkSession

    spark = SparkSession.getActiveSession()
    if spark is None:
        raise RuntimeError("Fig. 10 cells run on the active SparkSession; start one first")
    return spark


def _partitioned_cell(p: int, inp, _time_limit):
    from repro.spark.partitioned import PartitionedCrown

    bq, tree, events = inp
    pc = PartitionedCrown(_active_spark(), bq.cq, p=p, tree=tree)
    t0 = time.perf_counter()
    res = pc.run_stream(events)
    return {
        "seconds": round(time.perf_counter() - t0, 2),
        "max_shard_ms": round(res.millis.max(), 1),
        "deltas": int(res.deltas.sum()),
    }


def _spark_baseline_cell(engine: str, prefix: int, inp, _time_limit):
    from repro.spark.baseline_cp import SparkStandardCP
    from repro.spark.hivm_spark import SparkFirstOrderHIVM

    bq, batches = inp
    spark = _active_spark()
    cls = SparkStandardCP if engine == "spark_cp(flink)" else SparkFirstOrderHIVM
    eng = cls(spark, bq.cq, atom_filters=spark_atom_filters(bq.cq))
    t0 = time.perf_counter()
    deltas = 0
    for b in batches:
        deltas += eng.process_batch({"G": spark.createDataFrame(b[["sign", "v0", "v1"]])}).count()
    return {
        "seconds": round(time.perf_counter() - t0, 2),
        "max_shard_ms": "-",
        "deltas": deltas,
        "note": f"first {prefix} events only",
    }


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def table1(scale: str) -> list[Cell]:
    return [
        Cell("table1", "Table 1: engine features", (("engine", e),), e, hop4_proj,
             partial(_capabilities_cell, e))
        for e in ENGINES
    ]


def fig7(scale: str) -> list[Cell]:
    s = SIZES["fig7"][scale]
    title = (
        f"Fig. 7: total processing time (graph sf={s['sf']}, w={s['window']}; "
        f"snb sf={s['snb_sf']})"
    )
    return [
        Cell("fig7", title, (("query", q),), e, partial(fig7_workload, q, **s),
             partial(_total_cell, _seconds, e))
        for q in FIG7_QUERIES
        for e in ENGINES
    ]


def fig8(scale: str) -> list[Cell]:
    return [
        Cell("fig8", "Fig. 8: avg processing time per update vs scale factor (SNB Q1)",
             (("sf", sf),), e, lambda sf=sf: Workload(snb_q1(), _snb(sf)),
             partial(_total_cell, lambda r: f"{r.avg_update_us:.1f}us", e))
        for sf in SIZES["fig8"][scale]["sfs"]
        for e in ("crown", "flink_cp", "dbtoaster_hivm")
    ]


def fig9(scale: str) -> list[Cell]:
    return [
        Cell("fig9", "Fig. 9: CROWN maintenance cost vs enclosureness (Thm 6.7 query)",
             (("lambda", lam),), "crown", partial(_fig9_load, lam), _fig9_cell)
        for lam in SIZES["fig9"][scale]["lambdas"]
    ]


def fig10(scale: str) -> list[Cell]:
    s = SIZES["fig10"][scale]
    n, prefix = s["events"], s["baseline_events"]
    title = f"Fig. 10: 4hop_proj distributed, {n} events (baselines: {prefix})"

    def crown_load():
        bq = hop4_proj()
        return bq, best_tree(bq.cq), fig10_events(n, s["dom"])

    def baseline_load():
        # the micro-batch baselines get 4 batches of a prefix of the stream
        return hop4_proj(), net_batches(fig10_events(n, s["dom"]).head(prefix), 4)

    return [
        Cell("fig10", title, (("engine", f"crown(p={p})"),), f"crown(p={p})", crown_load,
             partial(_partitioned_cell, p), spark=True)
        for p in s["ps"]
    ] + [
        Cell("fig10", title, (("engine", e),), e, baseline_load,
             partial(_spark_baseline_cell, e, prefix), spark=True)
        for e in ("spark_cp(flink)", "spark_hivm(dbtoaster)")
    ]


def fig11(scale: str) -> list[Cell]:
    s = SIZES["fig11"][scale]
    title = f"Fig. 11: delta-enumeration latency (3hop_full, sf={s['sf']}, w={s['window']})"
    # sliding window (bounded state) and cash-register (insertion-only:
    # the baseline's views grow for the whole stream, the regime where
    # the paper's Trill latency keeps climbing)
    modes = {"window": s["window"], "cash-register": None}
    return [
        Cell("fig11", title, (("mode", mode), ("engine", e)), e,
             lambda w=w: Workload(hop3_full(), _graph(s["sf"], w)),
             partial(_latency_cell, e))
        for mode, w in modes.items()
        for e in ("crown", "trill_delta")
    ]


def fig12(scale: str) -> list[Cell]:
    s = SIZES["fig12"][scale]
    return [
        Cell("fig12",
             f"Fig. 12: {q} runtime vs filter selectivity (sf={s['sf']}, w={s['window']})",
             (("query", q), ("keep_pct", pct)), e,
             lambda f=f, pct=pct: Workload(last_hop_filtered(f(), pct), _graph(s["sf"], s["window"])),
             partial(_total_cell, _seconds, e))
        for q, f in (("3hop_full", hop3_full), ("4hop_proj", hop4_proj))
        for pct in s["pcts"]
        for e in ("crown", "flink_cp", "dbtoaster_hivm")
    ]


# figure -> (cells at a scale, the columns of its tables)
FIGURES: dict[str, tuple[Callable[[str], list[Cell]], list[str]]] = {
    "table1": (table1, ["system", "distributed", "full_enumeration",
                        "delta_enumeration", "updates", "internal"]),
    "fig7": (fig7, ["query", "updates", *ENGINES]),
    "fig8": (fig8, ["sf", "updates", "crown", "flink_cp", "dbtoaster_hivm"]),
    "fig9": (fig9, ["lambda", "measured_lambda", "updates",
                    "counter_changes_per_update", "us_per_update"]),
    "fig10": (fig10, ["engine", "seconds", "max_shard_ms", "deltas", "note"]),
    "fig11": (fig11, ["mode", "engine", "avg_ms", "p99_ms", "q1_avg_ms",
                      "q4_avg_ms", "trend"]),
    "fig12": (fig12, ["keep_pct", "deltas", "crown", "flink_cp", "dbtoaster_hivm"]),
}

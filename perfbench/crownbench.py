"""CROWN benchmark: workload streams, timed replays and output checks.

Every workload replays a fixed-seed update stream in a closed loop: one
in-process caller sends the next update only after ``apply`` (or
``run_stream``) returns. Outputs are checked on every run:

- each delta must be effective against a running result set (no ``+r``
  already present, no ``-r`` absent);
- at each checkpoint the running set must equal ``enumerate_full()``,
  which must equal the query's ``BenchQuery.sql`` run in DuckDB over the
  live base tuples;
- for Spark, the shard-union delta multiset must equal the one of a
  single in-process ``CrownEngine`` replaying the same stream.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import duckdb
import pandas as pd

from repro.bench import harness, queries
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree
from repro.streams.sequences import Update

from spans import OFF, Tracer

clock = time.perf_counter


class TimeCap(BaseException):
    """Raised by the SIGALRM handler when a run exceeds its time cap."""


class CpuHopper:
    """Moves this process to the next allowed CPU every ``HOP_S`` seconds.

    Other tenants of a shared host slow some CPUs for long stretches; a
    process left alone stays on one CPU for a whole run, so runs would
    differ by the CPU they started on. Moving between timed calls lets
    every run sample all CPUs, and the fastest-of-replays figures pick
    the uncontended ones.
    """

    HOP_S = 0.05

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.k = 0
        self.due = clock() + self.HOP_S

    def tick(self, now: float) -> None:
        if now > self.due:
            self.move()

    def move(self) -> None:
        self.k += 1
        os.sched_setaffinity(0, {self.cpus[self.k % len(self.cpus)]})
        self.due = clock() + self.HOP_S

    def restore(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def pct(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_vals[max(0, math.ceil(q / 100 * len(sorted_vals)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    conf: dict
    seed: int
    bq: queries.BenchQuery
    updates: list[Update]
    passes: int  # enumerate_full passes per checkpoint

    @property
    def checkpoints(self) -> set[int]:
        n, k = len(self.updates), self.conf["checkpoints"]
        return {i * n // (k + 1) for i in range(1, k + 1)}


def make_workload(name: str, spec: dict, seed: int) -> Workload:
    conf = spec["workloads"][name]
    p = conf["params"]
    if conf["generator"].endswith("graph_stream"):
        updates = harness.graph_stream(sf=p["sf"], window=p["window"], seed=seed).updates
    else:
        updates = harness.snb_stream(sf=p["sf"], window_days=p["window_days"], seed=seed).updates
    return Workload(name, conf, seed, getattr(queries, conf["query"])(), updates,
                    spec["enum_passes"])


def events_frame(updates: list[Update]) -> pd.DataFrame:
    """The stream as ``PartitionedCrown.run_stream`` input: seq, stream,
    sign, v0..vk."""
    k = max(len(u.tuple) for u in updates)
    return pd.DataFrame(
        [(i, u.stream, 1 if u.is_insert else -1, *u.tuple) for i, u in enumerate(updates)],
        columns=["seq", "stream", "sign", *(f"v{j}" for j in range(k))],
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def effective(results: set, deltas: list[tuple[int, tuple]]) -> bool:
    """Apply deltas to the running result set; False if any is ineffective."""
    ok = True
    for s, r in deltas:
        if s > 0:
            if r in results:
                ok = False
            results.add(r)
        elif r in results:
            results.remove(r)
        else:
            ok = False
    return ok


def duckdb_result(bq: queries.BenchQuery, base: dict[str, list[tuple]]) -> set[tuple]:
    """The query's SQL over the live base tuples, as a set of output tuples."""
    con = duckdb.connect()
    try:
        for stream, cols in bq.streams.items():
            if stream in base:
                con.register(stream, pd.DataFrame(base[stream], columns=list(cols)).convert_dtypes())
        cur = con.execute(bq.sql)
        names = [d[0] for d in cur.description]
        idx = [names.index(a) for a in bq.cq.output]
        return {tuple(row[i] for i in idx) for row in cur.fetchall()}
    finally:
        con.close()


def delta_digest(deltas) -> str:
    """Order-independent digest of a delta multiset: the sum, modulo
    2**128, of one hash per delta. It needs no sorted copy, so checking
    a large payload adds little to the peak RSS."""
    acc = 0
    for s, v in deltas:
        h = hashlib.blake2b(repr((int(s), tuple(v))).encode(), digest_size=16).digest()
        acc += int.from_bytes(h, "big")
    return f"{acc % (1 << 128):032x}"


# ---------------------------------------------------------------------------
# single-engine replay
# ---------------------------------------------------------------------------

@dataclass
class Replay:
    engine: CrownEngine | None = None  # kept only when asked for
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    apply_s: float = 0.0
    lat: array = field(default_factory=lambda: array("d"))  # per update, stream order
    deltas: int = 0
    # per checkpoint: (results, fastest enumerate_full pass in seconds)
    enum: list[tuple[int, float]] = field(default_factory=list)
    space_peak: int = 0
    space_ratio: float = 0.0
    wall_s: float = 0.0
    checkpoint_s: float = 0.0
    # per checkpoint: (result count, result-set hash, live base tuples or None)
    snapshots: list[tuple] = field(default_factory=list)
    all_deltas: list | None = None

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


def replay(
    wl: Workload,
    tree,
    tracer: Tracer = OFF,
    emit_deltas: bool = True,
    ref: Replay | None = None,
    keep_base: bool = False,
    collect: bool = False,
    keep_engine: bool = False,
) -> Replay:
    """Replay the stream through a fresh engine, timing every ``apply``.

    ``ref`` is an earlier replay of the same stream whose checkpoint
    snapshots this one must match; ``keep_base`` keeps the live base
    tuples of each checkpoint for the DuckDB check. The engine is
    dropped on return unless ``keep_engine``, so replays in a row do
    not hold each other's state.
    """
    bq = wl.bq
    r = Replay(all_deltas=[] if collect else None)
    t_start = clock()
    with tracer.span("core.engine.init"):
        eng = CrownEngine(bq.cq, tree, post_filter=bq.post_filter, emit_deltas=emit_deltas)
    results: set = set()
    base: dict[str, set] = {s: set() for s in bq.streams}
    cps = wl.checkpoints
    name = "core.engine.apply" if emit_deltas else "core.engine.apply_maintain"
    add = tracer.add if tracer.enabled else None
    lat = r.lat
    hop = CpuHopper()
    try:
        for i, u in enumerate(wl.updates):
            r.attempted += 1
            t0 = clock()
            d = eng.apply(u)
            t1 = clock()
            lat.append(t1 - t0)
            hop.tick(t1)
            if add:
                add(name, t0, t1, {"ins": u.is_insert, "deltas": len(d)})
            if d:
                r.deltas += len(d)
                if not effective(results, d):
                    r.fail(f"update {i}: ineffective delta")
                if collect:
                    r.all_deltas.extend(d)
            if u.is_insert:
                base[u.stream].add(u.tuple)
            else:
                base[u.stream].discard(u.tuple)
            if i in cps:
                _checkpoint(wl, r, eng, results, base, tracer, emit_deltas, ref, keep_base, hop)
    except Exception as e:  # an engine error ends the replay: its state is unusable
        r.fail(f"exception: {e!r}")
    finally:
        hop.restore()
    r.apply_s = sum(lat)
    r.wall_s = clock() - t_start
    if keep_engine:
        r.engine = eng
    return r


def _checkpoint(wl, r, eng, results, base, tracer, emit_deltas, ref, keep_base, hop) -> None:
    c0 = clock()
    r.attempted += 1
    best = math.inf
    for _ in range(wl.passes):
        t0 = clock()
        got = list(eng.enumerate_full())
        t1 = clock()
        tracer.add("core.engine.enumerate_full", t0, t1, {"results": len(got)})
        best = min(best, t1 - t0)
    r.enum.append((len(got), best))
    space = eng.space()
    tracer.add("core.engine.space", t1, clock(), {"rows": space})
    r.space_peak = max(r.space_peak, space)
    r.space_ratio = max(r.space_ratio, space / max(1, sum(map(len, base.values()))))
    with tracer.span("bench.check"):
        got_set = set(got)
        k = len(r.snapshots)
        r.snapshots.append((len(got_set), hash(frozenset(got_set)),
                            {s: list(b) for s, b in base.items()} if keep_base else None))
        if len(got_set) != len(got):
            r.fail(f"checkpoint {k}: enumerate_full repeats results")
        if emit_deltas and got_set != results:
            r.fail(f"checkpoint {k}: deltas disagree with enumerate_full")
        if ref is not None and r.snapshots[k][:2] != ref.snapshots[k][:2]:
            r.fail(f"checkpoint {k}: result differs from the first replay")
    r.checkpoint_s += clock() - c0


def check_against_duckdb(wl: Workload, r: Replay, tracer: Tracer = OFF) -> None:
    """Run the SQL oracle on every checkpoint kept with ``keep_base``."""
    with tracer.span("bench.check", oracle="duckdb"):
        for k, (n, h, base) in enumerate(r.snapshots):
            r.attempted += 1
            want = duckdb_result(wl.bq, base)
            if (len(want), hash(frozenset(want))) != (n, h):
                r.fail(f"checkpoint {k}: enumerate_full differs from DuckDB "
                       f"({n} vs {len(want)} rows)")


# ---------------------------------------------------------------------------
# Spark
# ---------------------------------------------------------------------------

def start_spark(root: Path, work: Path, p: int):
    """Local SparkSession whose Python workers import ``repro`` from src/
    and whose temporary files stay under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{p}] --driver-java-options "
        f"{shlex.quote(f'-Djava.io.tmpdir={tmp} -XX:-UsePerfData')} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(work / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .config("spark.sql.shuffle.partitions", str(p))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    spark.stop()
    if gw is not None:
        gw.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class SparkCall:
    wall_s: float
    jobs: int
    shard_ms: list[float]
    updates: int
    payload_bytes: int
    digest: str  # of the shard-union delta multiset; the payload is not kept


def spark_call(spark, pc, events: pd.DataFrame, group: str,
               tracer: Tracer = OFF) -> SparkCall:
    """One timed ``run_stream`` with ``collect_deltas``; counts its jobs,
    then digests the JSON payload outside the timed part."""
    sc = spark.sparkContext
    sc.setJobGroup(group, "perfbench run_stream")
    with tracer.span("spark.partitioned.run_stream") as attrs:
        t0 = clock()
        res = pc.run_stream(events, collect_deltas=True)
        wall = clock() - t0
        jobs = len(sc.statusTracker().getJobIdsForGroup(group))
        attrs.update(jobs=jobs, shard_ms=[float(x) for x in res.millis])
    with tracer.span("bench.check", oracle="spark_payload"):
        payload = list(res.payload)
        digest = delta_digest(d for p in payload for d in json.loads(p))
    return SparkCall(wall, jobs, [float(x) for x in res.millis],
                     int(res.updates.sum()), sum(len(p.encode()) for p in payload), digest)


def spark_setup(wl: Workload, events: pd.DataFrame, root: Path, work: Path,
                tracer: Tracer = OFF):
    """Session start, best_tree, PartitionedCrown and one warm-up call;
    returns (spark, PartitionedCrown, tree)."""
    from repro.spark.partitioned import PartitionedCrown

    conf = wl.conf["spark"]
    with tracer.span("spark.session.start"):
        spark = start_spark(root, work, conf["p"])
    with tracer.span("cq.join_tree.best_tree"):
        tree = best_tree(wl.bq.cq)
    with tracer.span("spark.partitioned.init"):
        pc = PartitionedCrown(spark, wl.bq.cq, p=conf["p"], tree=tree)
    with tracer.span("spark.partitioned.run_stream", warmup=True):
        pc.run_stream(events.head(conf["warmup_events"]), collect_deltas=True)
    return spark, pc, tree


def setup_probes(run_py: Path, wl: Workload, n: int, timeout: float) -> list[float]:
    """Set-up time of ``n`` fresh interpreters (cold caches). Each probe
    inherits the next CPU in turn, so the probes sample every CPU rather
    than whichever the scheduler picks."""
    hop = CpuHopper()
    out = []
    try:
        for _ in range(n):
            hop.move()
            proc = subprocess.run(
                [sys.executable, str(run_py), "--workload", wl.name, "--seed", str(wl.seed),
                 "--setup-probe"],
                capture_output=True, text=True, timeout=timeout, check=True,
            )
            out.append(float(proc.stdout.strip().splitlines()[-1]))
    finally:
        hop.restore()
    return out

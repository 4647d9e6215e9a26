"""CROWN benchmark entry point.

    python3 perfbench/run.py --workload graph_4hop_proj --seed 1 --seconds 10 --trace 0

Run from the repository root; ``repro`` is imported from ``src/``.
Workload parameters live in ``perfbench/spec.json``, metric names and
units in ``BENCHMARK.json``. ``--trace 0`` measures with tracing off and
prints the end-to-end metrics; ``--trace 1`` records spans around every
call into ``repro.cq.join_tree``, ``repro.core.engine`` and
``repro.spark.partitioned``, writes them to ``perfbench/.work/traces/``
and prints the per-layer metrics. ``--workload all`` runs every
workload in turn. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

from spans import OFF, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: print one cold set-up time and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} has no src/repro or BENCHMARK.json; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, spec)
    import crownbench as cb

    def on_alarm(signum, frame):
        raise cb.TimeCap(f"time cap of {spec['time_cap_s']} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, spec["time_cap_s"])
    out = Outcome()
    tracer = Tracer(uuid.uuid4().hex[:12]) if args.trace else OFF
    try:
        with tracer.span("bench.gen"):
            wl = cb.make_workload(args.workload, spec, args.seed)
        if not args.trace:
            core_e2e(cb, wl, spec, args.seconds, out)
        elif "spark" in wl.conf:
            spark_trace(cb, wl, tracer, out)
        else:
            core_trace(cb, wl, tracer, out)
    except cb.TimeCap as e:
        out.fail(f"aborted: {e}")
    except Exception:  # report any other failure in the result line
        traceback.print_exc()
        out.fail("aborted: exception")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer.enabled:
        out.metrics["bench.gen_s"] = tracer.total("bench.gen")
        out.metrics["bench.check_s"] = tracer.total("bench.check")
        for layer, s in tracer.self_time_by_layer().items():
            out.metrics[f"{layer}.self_s"] = s
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}-{tracer.run_id}.jsonl.gz"
        tracer.write(path)
        out.notes.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    return report(args.workload, out, declared, zero_missing=bool(args.trace))


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def fail(self, msg: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(msg)

    def absorb(self, r) -> None:
        """Add the operation counts and errors of a replay."""
        self.attempted += r.attempted
        self.failed += r.failed
        self.errors.extend(r.errors)


def report(workload: str, out: Outcome, declared: list[dict], zero_missing: bool) -> int:
    """Print one line per metric, then the JSON result line.

    In a traced run a layer the workload does not exercise did no work,
    so its metrics read 0; an end-to-end metric is never filled in.
    """
    metrics = {}
    for m in declared:
        v = out.metrics.get(m["name"], 0.0 if zero_missing else None)
        if v is None:
            continue
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}
        print(f"{workload:20s} {m['name']:42s} {float(v):16.6g} {m['unit']}")
    for n in out.notes:
        print(f"{workload:20s} note: {n}")
    for e in out.errors:
        print(f"{workload:20s} FAILED: {e}")
    rate = out.failed / max(1, out.attempted)
    print(f"{workload:20s} error_rate {rate:.6g} ({out.failed} failed of {out.attempted} operations)")
    print(json.dumps({"correct": out.failed == 0, "attempted": max(1, out.attempted),
                      "failed": out.failed, "metrics": metrics}), flush=True)
    return 0


def setup_probe(args, spec) -> int:
    """One set-up in this fresh interpreter; prints its seconds. A probe
    imports only what the set-up needs, so probes stay cheap."""
    from repro.bench import queries

    _, s = core_setup(getattr(queries, spec["workloads"][args.workload]["query"])())
    print(repr(s))
    return 0


def core_setup(bq, tracer: Tracer = OFF):
    """best_tree + CrownEngine construction; returns (tree, seconds)."""
    from repro.core.engine import CrownEngine
    from repro.cq.join_tree import best_tree

    t0 = time.perf_counter()
    with tracer.span("cq.join_tree.best_tree"):
        tree = best_tree(bq.cq)
    with tracer.span("core.engine.init"):
        CrownEngine(bq.cq, tree, post_filter=bq.post_filter)
    return tree, time.perf_counter() - t0


def repeats(conf: dict, seconds: float) -> int:
    """Fixed number of replays for a run: ``seconds`` over the nominal
    duration of one in spec.json, at least 3. It does not depend on how
    fast the host happens to be."""
    return max(3, round(seconds / conf["repeat_s"]))


# ---------------------------------------------------------------------------
# core workloads
# ---------------------------------------------------------------------------

def core_e2e(cb, wl, spec, seconds: float, out: Outcome) -> None:
    """A fixed number of whole replays of the stream on fresh engines.

    Other tenants of the host slow a stretch of a replay, never speed
    it up, so each update's latency is its fastest time over the
    replays, each checkpoint's enumeration time its fastest pass, and
    the set-up time the fastest probe. (The median probe moved by up to
    40% between runs a minute apart; the fastest moved far less.)
    """
    samples = cb.setup_probes(Path(__file__), wl, spec["setup_samples"], 60)
    tree, _ = core_setup(wl.bq)
    n = repeats(wl.conf, seconds)
    reps = []
    for _ in range(n):
        r = cb.replay(wl, tree, ref=reps[0] if reps else None, keep_base=not reps)
        reps.append(r)
        if r.failed:
            break
    rss = cb.peak_rss_mb()
    cb.check_against_duckdb(wl, reps[0])
    for r in reps:
        out.absorb(r)
    lat = sorted(map(min, zip(*(r.lat for r in reps))))
    enum_n = sum(k for k, _ in reps[0].enum)
    enum_s = sum(map(min, zip(*([t for _, t in r.enum] for r in reps))))
    out.metrics.update({
        "setup_s": min(samples),
        "updates_per_s": len(lat) / sum(lat),
        "update_p50_us": cb.pct(lat, 50) * 1e6,
        "update_p99_us": cb.pct(lat, 99) * 1e6,
        "enum_results_per_s": enum_n / enum_s,
        "state_rows": max(r.space_peak for r in reps),
        "peak_rss_mb": rss,
    })
    out.notes.append(f"{len(reps)} replays of {len(wl.updates)} updates; latency samples "
                     f"n={len(lat)} ({len(lat) // 100} beyond p99), each the fastest of "
                     f"{len(reps)}; {len(reps[0].enum)} checkpoints x {wl.passes * len(reps)} "
                     f"enumerate_full passes; setup samples n={len(samples)}, the fastest taken")


def core_layer_metrics(cb, tracer, eng, maintain_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced replay, read from its spans."""
    ins, dels, deltas, productive = [], [], 0, 0
    for name, t0, t1, _, a in tracer.spans:
        if name == "core.engine.apply":
            (ins if a["ins"] else dels).append(t1 - t0)
            deltas += a["deltas"]
            productive += a["deltas"] > 0
    ins.sort()
    dels.sort()
    calls = len(ins) + len(dels)
    busy = sum(ins) + sum(dels)
    enum = [(t1 - t0, a["results"]) for n, t0, t1, _, a in tracer.spans
            if n == "core.engine.enumerate_full"]
    return {
        "cq.join_tree.best_tree_s": tracer.durations("cq.join_tree.best_tree")[0],
        "core.engine.init_s": tracer.durations("core.engine.init")[0],
        "core.engine.apply_calls": calls,
        "core.engine.apply_busy_s": busy,
        "core.engine.insert_p50_us": cb.pct(ins, 50) * 1e6 if ins else 0.0,
        "core.engine.insert_p99_us": cb.pct(ins, 99) * 1e6 if ins else 0.0,
        "core.engine.delete_p50_us": cb.pct(dels, 50) * 1e6 if dels else 0.0,
        "core.engine.delete_p99_us": cb.pct(dels, 99) * 1e6 if dels else 0.0,
        "core.engine.maintain_s": maintain_s,
        "core.engine.emit_share": 1 - maintain_s / busy,
        "core.engine.deltas": deltas,
        "core.engine.deltas_per_update": deltas / calls,
        "core.engine.us_per_delta": (busy - maintain_s) / deltas * 1e6 if deltas else 0.0,
        "core.engine.productive_update_share": productive / calls,
        "core.engine.counter_changes_per_update":
            eng.stats["counter_changes"] / max(1, eng.stats["updates"]),
        "core.engine.full_enum_s": sum(d for d, _ in enum),
        "core.engine.full_enum_results": sum(n for _, n in enum),
        "core.engine.space_rows_peak": max(a["rows"] for n, _, _, _, a in tracer.spans
                                           if n == "core.engine.space"),
    }


def traced_replays(cb, wl, tree, tracer, out: Outcome, collect: bool = False):
    """Untraced replay (overhead baseline), traced replay and an
    ``emit_deltas=False`` maintenance replay; returns the untraced one,
    with its deltas if ``collect``."""
    r0 = cb.replay(wl, tree, keep_base=True, collect=collect)
    with tracer.span("bench.replay", traced=True):
        r1 = cb.replay(wl, tree, tracer, ref=r0, keep_engine=True)
    r2 = cb.replay(wl, tree, ref=r0)
    with tracer.span("bench.replay", maintain=True):
        rm = cb.replay(wl, tree, tracer, emit_deltas=False)
    cb.check_against_duckdb(wl, r0, tracer)
    for r in (r0, r1, r2, rm):
        out.absorb(r)
    out.metrics.update(core_layer_metrics(cb, tracer, r1.engine, rm.apply_s))
    out.metrics["core.engine.space_per_live_tuple"] = r1.space_ratio
    # untraced replays before and after the traced one, so warm-up
    # effects do not count as tracing cost
    loop = [r.wall_s - r.checkpoint_s for r in (r0, r1, r2)]
    out.metrics["bench.trace_overhead"] = loop[1] / ((loop[0] + loop[2]) / 2) - 1
    return r0


def core_trace(cb, wl, tracer, out: Outcome) -> None:
    tree, _ = core_setup(wl.bq, tracer)
    traced_replays(cb, wl, tree, tracer, out)


# ---------------------------------------------------------------------------
# Spark, in the traced run of a workload whose spec has a "spark" entry
# ---------------------------------------------------------------------------

def spark_trace(cb, wl, tracer, out: Outcome) -> None:
    """The core traced replays, then the same stream through
    ``PartitionedCrown``: a fixed number of ``run_stream`` calls, each
    checked against the single engine's deltas."""
    from repro.spark.partitioned import dispatch_plan

    conf = wl.conf["spark"]
    events = cb.events_frame(wl.updates)
    spark, pc, tree = cb.spark_setup(wl, events, ROOT, WORK, tracer)
    try:
        with tracer.span("spark.partitioned.dispatch_plan") as a:
            plan = dispatch_plan(wl.bq.cq, tree, events, conf["p"])
            a["rows"] = len(plan)
        calls = [cb.spark_call(spark, pc, events, f"perfbench-{i}", tracer)
                 for i in range(conf["calls"])]
    finally:
        cb.stop_spark(spark)
    r0 = traced_replays(cb, wl, tree, tracer, out, collect=True)
    with tracer.span("bench.check", oracle="reference_digest"):
        ref_digest = cb.delta_digest(r0.all_deltas)
    for i, c in enumerate(calls):
        if c.digest != ref_digest:
            out.fail(f"run_stream call {i}: shard-union deltas differ from the single engine")
        elif c.updates != len(plan):
            out.fail(f"run_stream call {i}: shards applied {c.updates} of {len(plan)} rows")
        else:
            out.attempted += 1
    med = statistics.median
    run_s = med(c.wall_s for c in calls)
    shard_max = med(max(c.shard_ms) for c in calls)
    shard_mean = med(sum(c.shard_ms) / len(c.shard_ms) for c in calls)
    out.metrics.update({
        "spark.partitioned.dispatch_s": tracer.total("spark.partitioned.dispatch_plan"),
        "spark.partitioned.fanout": len(plan) / len(events),
        "spark.partitioned.run_stream_s": run_s,
        "spark.partitioned.shard_ms_max": shard_max,
        "spark.partitioned.shard_ms_mean": shard_mean,
        "spark.partitioned.shard_skew": shard_max / shard_mean,
        "spark.partitioned.non_shard_s": run_s - shard_max / 1000,
        "spark.partitioned.jobs": med(c.jobs for c in calls),
        "spark.partitioned.payload_bytes": med(c.payload_bytes for c in calls),
        "spark.partitioned.single_engine_s": r0.apply_s,
        "spark.partitioned.speedup": r0.apply_s / run_s,
    })
    out.notes.append(f"{len(calls)} traced run_stream calls of {len(events)} events (walls "
                     f"{', '.join(f'{c.wall_s:.3f}' for c in calls)} s); non-shard share of "
                     f"run_stream {(run_s - shard_max / 1000) / run_s:.2f}")


def run_all(args, spec) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=200,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate one evaluation table (Table 1, Figs. 7–12) of the paper.

    python jobs/run.py <table1|fig7|…|fig12> [--quick] [--time-limit S] [--queries q1,q2]

Each figure's engines, workloads and sizes live in
``repro.bench.experiments``; ``--quick`` runs its reduced scale.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

# allow running as `python jobs/run.py` from the repo root without install
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.bench.experiments import FIGURES, TIME_LIMIT_S  # noqa: E402
from repro.bench.harness import print_table  # noqa: E402


def get_spark(app: str):
    # Spark's Python workers unpickle repro objects, so they import it too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--quick", action="store_true", help="reduced scale")
    p.add_argument("--time-limit", type=float, default=TIME_LIMIT_S,
                   help="per-engine time cap in seconds (paper: 4h)")
    p.add_argument("--queries", default="", help="comma list of queries to run")
    args = p.parse_args()
    cells_of, columns = FIGURES[args.figure]
    cells = cells_of("quick" if args.quick else "full")
    if only := {q for q in args.queries.split(",") if q}:
        cells = [c for c in cells if dict(c.row).get("query") in only]
        if not cells:
            p.error(f"{args.figure} has none of the queries {sorted(only)}")
    spark = get_spark(args.figure) if any(c.spark for c in cells) else None
    for title, group in itertools.groupby(cells, key=lambda c: c.table):
        rows: dict[tuple, dict] = {}
        for c in group:
            rows.setdefault(c.row, dict(c.row)).update(c.measure(c.load(), args.time_limit))
        print_table(title, list(rows.values()), columns)
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()

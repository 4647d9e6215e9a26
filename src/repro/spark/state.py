"""Shared DataFrame helpers for the micro-batch engines.

Micro-batch view state lives in plain DataFrames. Each batch derives
new state frames from old ones (immutable — the pre/post pair is what
batch delta computation diffs), then eagerly ``localCheckpoint``s the
survivors so lineage does not grow across batches (the Structured
Streaming state-store equivalent for a synchronous driver loop).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession


def empty_df(spark: SparkSession, cols: list[str]) -> DataFrame:
    """Empty long-typed frame with the given columns (join keys are
    synthetic integer ids throughout the benchmarks; string payloads
    are encoded upstream)."""
    schema = ", ".join(f"`{c}` long" for c in cols)
    return spark.createDataFrame([], schema)


def checkpoint(df: DataFrame) -> DataFrame:
    """Eager localCheckpoint: truncate lineage, keep the data cached."""
    return df.localCheckpoint(eager=True)


def apply_set_delta(
    state: DataFrame, inserts: DataFrame | None, deletes: DataFrame | None
) -> DataFrame:
    """Set semantics: (state ∖ deletes) ∪ inserts, by full-row equality."""
    out = state
    if deletes is not None:
        out = out.join(deletes, on=list(state.columns), how="left_anti")
    if inserts is not None:
        out = out.unionByName(
            inserts.select(state.columns).join(
                state, on=list(state.columns), how="left_anti"
            )
        )
    return out


def semi(df: DataFrame, other: DataFrame, on: list[str]) -> DataFrame:
    if not on:
        # degenerate key: keep rows iff `other` is non-empty
        return df if not other.isEmpty() else df.limit(0)
    return df.join(other.select(on).dropDuplicates(), on=on, how="left_semi")


def anti(df: DataFrame, other: DataFrame, on: list[str]) -> DataFrame:
    if not on:
        return df.limit(0) if not other.isEmpty() else df
    return df.join(other.select(on).dropDuplicates(), on=on, how="left_anti")


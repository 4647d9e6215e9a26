"""Shared DataFrame helpers for the Spark micro-batch baselines
(``SparkStandardCP``, ``SparkFirstOrderHIVM``).

Their view state lives in plain DataFrames. Each batch derives new
state frames from old ones, then eagerly ``localCheckpoint``s the
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


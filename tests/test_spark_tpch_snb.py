"""CROWN over TPC-H-lite and SNB-lite with the DuckDB oracle.

These exercise the provided ``synth_data`` generators and
``repro.oracle.assert_equivalent`` end to end: a Spark DataFrame built
from CROWN's enumeration must equal DuckDB's answer on the same input.
"""
import pandas as pd
import pytest

from repro.bench.queries import snb_q1, snb_q2
from repro.core.engine import CrownEngine
from repro.cq.query import CQ, Relation
from repro.oracle import assert_equivalent
from repro.streams.sequences import Update
from repro.synth_data import customer, lineitem, orders, snb_tables_pdf

pytestmark = pytest.mark.spark


def _load(eng, stream, pdf, cols, caster=None):
    for r in pdf[cols].itertuples(index=False):
        vals = tuple(r)
        if caster:
            vals = caster(vals)
        eng.apply(Update(stream, vals, True))


def test_tpch_lineitem_orders_customer_join(spark):
    """π over lineitem ⋈ orders ⋈ customer (free-connex chain)."""
    li = lineitem(spark, sf=0.002).toPandas()
    od = orders(spark, sf=0.002).toPandas()
    cu = customer(spark, sf=0.002).toPandas()
    cq = CQ(
        (
            Relation("L", ("okey", "pkey")),
            Relation("O", ("okey", "ckey")),
            Relation("C", ("ckey", "seg")),
        ),
        output=("okey", "ckey", "seg"),
        name="tpch_chain",
    )
    eng = CrownEngine(cq)
    _load(eng, "L", li, ["l_orderkey", "l_partkey"], lambda v: (int(v[0]), int(v[1])))
    _load(eng, "O", od, ["o_orderkey", "o_custkey"], lambda v: (int(v[0]), int(v[1])))
    _load(eng, "C", cu, ["c_custkey", "c_mktsegment"], lambda v: (int(v[0]), v[1]))
    got = spark.createDataFrame(
        pd.DataFrame(sorted(eng.full_result_set()), columns=list(cq.output))
    )
    sql = """
        SELECT DISTINCT l_orderkey AS okey, o_custkey AS ckey,
               c_mktsegment AS seg
        FROM li JOIN od ON l_orderkey = o_orderkey
        JOIN cu ON o_custkey = c_custkey
    """
    assert_equivalent(got, sql, li=li, od=od, cu=cu)


@pytest.mark.parametrize("factory", [snb_q1, snb_q2], ids=lambda f: f.__name__)
def test_snb_queries_vs_duckdb(spark, factory):
    bq = factory()
    cq = bq.cq
    t = snb_tables_pdf(sf=0.01, seed=3)
    eng = CrownEngine(cq, post_filter=bq.post_filter)
    used = {r.stream for r in cq.relations}
    if "person" in used:
        _load(eng, "person", t["person"], ["p_personid", "p_firstname", "p_lastname"],
              lambda v: (int(v[0]), v[1], v[2]))
    if "knows" in used:
        _load(eng, "knows", t["knows"], ["k_person1id", "k_person2id"],
              lambda v: (int(v[0]), int(v[1])))
    if "tag" in used:
        _load(eng, "tag", t["tag"], ["t_tagid", "t_name"], lambda v: (int(v[0]), v[1]))
    if "message" in used:
        _load(eng, "message", t["message"], ["m_messageid", "m_creatorid", "m_c_replyof"],
              lambda v: (int(v[0]), int(v[1]), None if pd.isna(v[2]) else int(v[2])))
    if "message_tag" in used:
        _load(eng, "message_tag", t["message_tag"], ["mt_messageid", "mt_tagid"],
              lambda v: (int(v[0]), int(v[1])))
    rows = sorted(eng.full_result_set())
    got = spark.createDataFrame(
        pd.DataFrame(rows, columns=list(cq.output))
        if rows
        else pd.DataFrame({c: pd.Series(dtype=object) for c in cq.output})
    )
    assert_equivalent(
        got,
        bq.sql,
        person=t["person"],
        knows=t["knows"],
        tag=t["tag"],
        message=t["message"],
        message_tag=t["message_tag"],
    )


def test_snb_q4_distinct_count_vs_duckdb(spark):
    from repro.bench.queries import SNB_Q4_SQL, snb_q4_inner
    from repro.core.aggregates import DistinctCountAggregator

    import duckdb

    bq = snb_q4_inner()
    t = snb_tables_pdf(sf=0.01, seed=4)
    eng = CrownEngine(bq.cq)
    agg = DistinctCountAggregator(bq.cq, group=("tname", "t"), distinct="m")
    for r in t["knows"][["k_person1id", "k_person2id"]].itertuples(index=False):
        agg.feed(eng.apply(Update("knows", (int(r[0]), int(r[1])), True)))
    for r in t["tag"].itertuples(index=False):
        agg.feed(eng.apply(Update("tag", (int(r.t_tagid), r.t_name), True)))
    for r in t["message"].itertuples(index=False):
        ro = None if pd.isna(r.m_c_replyof) else int(r.m_c_replyof)
        agg.feed(eng.apply(Update("message", (int(r.m_messageid), int(r.m_creatorid), ro), True)))
    for r in t["message_tag"].itertuples(index=False):
        agg.feed(eng.apply(Update("message_tag", (int(r.mt_messageid), int(r.mt_tagid)), True)))
    con = duckdb.connect()
    for k, v in t.items():
        con.register(k, v)
    expect = {
        (row[0], row[1]): row[2] for row in con.execute(SNB_Q4_SQL).fetchall()
    }
    con.close()
    assert agg.result() == expect

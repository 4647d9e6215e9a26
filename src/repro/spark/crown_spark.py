"""SparkCrown: micro-batch change propagation without joins (DataFrame API).

The tuple-at-a-time algorithms of §4 vectorize per micro-batch:

- every node of the free-connex generalized join tree keeps two state
  DataFrames, ``rel`` (R_e; virtual for generalized nodes — the union
  of the defining children's V_p's) and ``vs`` (the semi-join view);
  ``V_p`` is derived as ``π_key(vs)`` on demand;
- a batch of updates is compacted (last event per tuple wins), pushed
  through atom selections, and propagated bottom-up: per node the
  *candidate* rows (delta rows ∪ state rows matching changed child
  keys) are re-evaluated with **delta-driven semi/anti-joins only** —
  the maintenance never joins two views, so per-batch work scales with
  the affected rows, not with intermediate join sizes (the paper's
  core claim, at batch granularity);
- the batch delta ΔQ is obtained by climbing the affected keys to the
  root and diffing *seeded* enumerations (Yannakakis top-down joins,
  Lemma 5.1/5.3 — output-proportional) over the immutable pre/post
  state pair. DataFrame immutability is what makes the pre/post diff
  free — the Structured Streaming analogue of the live-view machinery
  of §5.2, exact under batch semantics.

This is the foreachBatch-equivalent of a Structured Streaming job,
driven synchronously for deterministic tests (DESIGN.md § layering).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.cq.join_tree import JoinTree, best_tree
from repro.cq.query import CQ
from repro.spark.state import anti, apply_set_delta, checkpoint, empty_df, semi


@dataclass
class _NodeState:
    name: str
    attrs: list[str]
    key: list[str]
    children: list[str]
    def_children: list[str]
    is_gen: bool
    rel: DataFrame | None  # None for generalized nodes (virtual)
    vs: DataFrame


class SparkCrown:
    """Micro-batch CROWN over Spark DataFrames."""

    def __init__(
        self,
        spark: SparkSession,
        cq: CQ,
        tree: JoinTree | None = None,
        post_filter: Column | None = None,
        atom_filters: dict[str, Column] | None = None,
    ) -> None:
        self.spark = spark
        self.cq = cq
        self.tree = tree if tree is not None else best_tree(cq)
        if not self.tree.is_free_connex_tree():
            raise ValueError("tree is not a valid free-connex join tree")
        self.post_filter = post_filter
        self.atom_filters = atom_filters or {}
        self.nodes: dict[str, _NodeState] = {}
        for name in self.tree.postorder():
            tn = self.tree.node(name)
            attrs = list(tn.attrs)
            parent = self.tree.parent(name)
            key = sorted(set(attrs) & set(parent.attrs)) if parent else []
            def_children = [
                c
                for c in tn.children
                if tn.is_generalized
                and set(attrs) <= set(self.tree.node(c).attrs)
            ]
            self.nodes[name] = _NodeState(
                name=name,
                attrs=attrs,
                key=key,
                children=list(tn.children),
                def_children=def_children,
                is_gen=tn.is_generalized,
                rel=None if tn.is_generalized else empty_df(spark, attrs),
                vs=empty_df(spark, attrs),
            )
        self.batches = 0

    # ------------------------------------------------------------------
    def _vp(self, node: _NodeState, vs: DataFrame) -> DataFrame:
        return vs.select(node.key).dropDuplicates()

    def _rel_frame(
        self, node: _NodeState, vps: dict[str, DataFrame]
    ) -> DataFrame:
        """R_e: stored frame for relations, union of defining children's
        V_p's for generalized nodes (Example 4.2, generalized)."""
        if not node.is_gen:
            return node.rel
        parts = [
            vps[c].select(node.attrs) for c in node.def_children
        ]
        out = parts[0]
        for p in parts[1:]:
            out = out.unionByName(p)
        return out.dropDuplicates()

    def process_batch(
        self, stream_deltas: dict[str, DataFrame]
    ) -> DataFrame:
        """Apply one batch; return the signed output delta frame.

        ``stream_deltas[stream]`` carries a ``sign`` column (±1) plus
        the stream's value columns, already compacted by the caller
        (at most one event per tuple: the last one wins).
        """
        old_vs = {n: s.vs for n, s in self.nodes.items()}
        old_vp = {n: self._vp(s, s.vs) for n, s in self.nodes.items()}
        new_vp: dict[str, DataFrame] = {}
        dvs: dict[str, DataFrame] = {}  # signed V_s deltas per node
        dkeys: dict[str, DataFrame] = {}  # changed V_p keys per node

        for name in self.tree.postorder():
            node = self.nodes[name]
            # --- R_e delta for relation atoms fed by this batch
            rel_delta = None
            tn = self.tree.node(name)
            if tn.relation is not None:
                atom = self.cq.relation(tn.relation)
                sd = stream_deltas.get(atom.stream)
                if sd is not None:
                    rel_delta = sd.toDF("sign", *node.attrs)
                    flt = self.atom_filters.get(atom.name)
                    if flt is not None:
                        rel_delta = rel_delta.filter(flt)
            changed_children = [c for c in node.children if c in dkeys]
            if rel_delta is None and not changed_children:
                new_vp[name] = old_vp[name]
                continue
            # --- apply R_e delta (set semantics)
            if rel_delta is not None and node.rel is not None:
                ins = rel_delta.filter(F.col("sign") > 0).select(node.attrs)
                dels = rel_delta.filter(F.col("sign") < 0).select(node.attrs)
                node.rel = checkpoint(apply_set_delta(node.rel, ins, dels))
            rel_new = self._rel_frame(node, {**old_vp, **new_vp})
            # --- candidate rows whose V_s status may have changed:
            # delta rows plus state rows matching a changed child key
            cand = None
            if rel_delta is not None:
                cand = rel_delta.select(node.attrs)
            for c in changed_children:
                hit = semi(rel_new, dkeys[c], self.nodes[c].key)
                cand = hit if cand is None else cand.unionByName(hit)
            # defining children contribute new candidate tuples directly
            for c in changed_children:
                if c in node.def_children:
                    cand = cand.unionByName(dkeys[c].select(node.attrs))
            cand = cand.dropDuplicates()
            # --- new V_s membership for candidates: in R_e and every
            # child's V_p contains the key (formulae (3)/(4))
            alive = semi(cand, rel_new, node.attrs)
            for c in node.children:
                alive = semi(
                    alive, new_vp.get(c, old_vp[c]), self.nodes[c].key
                )
            entered = anti(alive, old_vs[name], node.attrs)
            left = anti(
                semi(cand, old_vs[name], node.attrs), alive, node.attrs
            )
            vs_new = checkpoint(apply_set_delta(old_vs[name], entered, left))
            node.vs = vs_new
            d = entered.withColumn("sign", F.lit(1)).unionByName(
                left.withColumn("sign", F.lit(-1))
            )
            d = checkpoint(d)
            if d.isEmpty():
                new_vp[name] = old_vp[name]
                continue
            dvs[name] = d
            # --- changed V_p keys drive the parent
            vp_new = self._vp(node, vs_new)
            kd = vp_new.exceptAll(old_vp[name]).unionByName(
                old_vp[name].exceptAll(vp_new)
            ).dropDuplicates()
            kd = checkpoint(kd)
            new_vp[name] = vp_new
            if node.key is not None and not kd.isEmpty():
                dkeys[name] = kd

        self.batches += 1
        if not dvs:
            return empty_df(self.spark, list(self.cq.output)).withColumn(
                "sign", F.lit(1)
            ).limit(0)
        # --- climb affected keys to the root (any changed result must
        # project to an affected root tuple)
        root = self.tree.root
        affected: dict[str, DataFrame] = {}
        for name in self.tree.postorder():
            node = self.nodes[name]
            a = dvs.get(name)
            a = a.select(node.attrs) if a is not None else None
            for c in node.children:
                if c in affected:
                    cn = self.nodes[c]
                    up = semi(
                        old_vs[name].unionByName(node.vs).dropDuplicates(),
                        affected[c],
                        cn.key,
                    )
                    a = up if a is None else a.unionByName(up).dropDuplicates()
            if a is not None:
                affected[name] = checkpoint(a)
        seed = affected[root]
        old_part = self._enumerate(old_vs, semi(seed, old_vs[root], self.nodes[root].attrs))
        new_part = self._enumerate(
            {n: s.vs for n, s in self.nodes.items()},
            semi(seed, self.nodes[root].vs, self.nodes[root].attrs),
        )
        plus = new_part.exceptAll(old_part).withColumn("sign", F.lit(1))
        minus = old_part.exceptAll(new_part).withColumn("sign", F.lit(-1))
        return checkpoint(plus.unionByName(minus))

    # ------------------------------------------------------------------
    def _enumerate(
        self, vs: dict[str, DataFrame], seed: DataFrame | None = None
    ) -> DataFrame:
        """Yannakakis top-down join of the V_s views, projected to y.

        Output-proportional by Lemma 5.1 (no dangling tuples anywhere);
        ``seed`` restricts the root (delta enumeration seeds).
        """
        y = list(self.cq.output)
        root = self.tree.root
        acc = (seed if seed is not None else vs[root]).dropDuplicates()
        order = [n for n in self._preorder() if n != root]
        for name in order:
            node = self.nodes[name]
            contrib = sorted(
                set(node.attrs) & (set(y) | self._below_keys(name))
            )
            side = vs[name].select(
                sorted(set(node.key) | set(contrib))
            ).dropDuplicates()
            acc = acc.join(side, on=node.key, how="inner") if node.key else acc.crossJoin(side)
        out = acc.select(y).dropDuplicates()
        if self.post_filter is not None:
            out = out.filter(self.post_filter)
        return out

    def _below_keys(self, name: str) -> set[str]:
        """Attrs of ``name`` needed as join keys by its children."""
        need: set[str] = set()
        for c in self.tree.node(name).children:
            need |= set(self.nodes[c].key)
        return need

    def _preorder(self) -> list[str]:
        out, stack = [], [self.tree.root]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.tree.node(cur).children)
        return out

    def full_result(self) -> DataFrame:
        return self._enumerate({n: s.vs for n, s in self.nodes.items()})

    def state_rows(self) -> int:
        """Total stored state rows (linear in |D| — Lemma 4.1)."""
        total = 0
        for s in self.nodes.values():
            if s.rel is not None:
                total += s.rel.count()
            total += s.vs.count()
        return total

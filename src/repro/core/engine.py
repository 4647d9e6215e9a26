"""CROWN: change propagation without joins (§4–§5 of the paper).

``CrownEngine`` maintains, for every node ``e`` of a free-connex
generalized join tree:

- the relation ``R_e`` (real for input relations, virtual for
  generalized nodes) with a *derivation counter* per tuple — the number
  of children ``e_i`` whose projection view contains ``t[key(e_i)]``;
- the semi-join view ``V_s(R_e)`` = tuples whose counter equals the
  number of children (Algorithms 2–4: R-/S-/P-UPDATE);
- the projection view ``V_p(R_e) = π_key(e) V_s(R_e)`` via grouped hash
  indexes (derivation counting);
- the live view ``V_l(R_e) = π_{e∩y} Q(D)`` (Lemma 5.5), used for
  witness detection (Def. 5.6) and the delta-enumeration chains.

Per update the engine emits the exact delta ``ΔQ(D, t)`` (Algorithm 6)
and supports full enumeration (Algorithm 5). Deletions are two-phase:
a non-mutating *probe* computes every view change, the delta is
enumerated against the pre-deletion state ("delta enumeration upon a
deletion is done before the tuple deletion"), then the probe's journal
is applied.

Design notes (see DESIGN.md § semantic decisions): witnesses use
``Δ(π_y V_s)`` via projection refcounts; witness checks and S-chains
exclude the current update's own Δ values at every chain node, which
realizes the "highest changed node claims the result" disjointness
argument of Lemma 5.7 for insertions and deletions alike.

Slot plans: the tree is compiled once, at construction, into tuple
positions. Every partial result is a plain tuple whose attribute order
(its *layout*) is fixed by where it was produced: a subtree's results
are the node's tuple followed by its children's results, concatenated.
One precomputed projection per layout (the root's and each witness
node's) maps a result to ``cq.output`` order, and one per live node
maps an output tuple to its ``V_l`` value; every key projection in the
views is likewise a precomputed ``itemgetter``.
"""
from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.cq.join_tree import JoinTree, best_tree
from repro.cq.query import CQ
from repro.streams.sequences import Update

_NO_Y: frozenset = frozenset()

Getter = Callable[[tuple], tuple]


def _getter(pos: Sequence[int]) -> Getter:
    """Projection of a tuple onto positions ``pos``, always as a tuple.

    A plain ``itemgetter`` of one index returns a scalar and of no index
    is an error, so those two cases become slices.
    """
    if len(pos) > 1:
        return itemgetter(*pos)
    lo = pos[0] if pos else 0
    return itemgetter(slice(lo, lo + len(pos)))


def _cross(prefix: tuple, parts: list[list[tuple]]) -> list[tuple]:
    """Every ``prefix + p_1 + … + p_k`` with ``p_i`` drawn from ``parts[i]``."""
    out = [prefix]
    for part in parts:
        out = [a + b for a in out for b in part]
    return out


class _Node:
    """Mutable per-node state (views, counters, hash indexes)."""

    def __init__(self, tree: JoinTree, name: str, y: frozenset[str]) -> None:
        tn = tree.node(name)
        self.name = name
        self.attrs: tuple[str, ...] = tn.attrs
        self.is_gen = tn.is_generalized
        self.parent: str | None = tn.parent
        self.children: tuple[str, ...] = tn.children
        self.is_root = tn.parent is None
        self.n_children = len(self.children)
        aset = set(self.attrs)
        parent_attrs = set(tree.node(tn.parent).attrs) if tn.parent else set()

        def pos_of(sub: Iterable[str]) -> Getter:
            return _getter([self.attrs.index(a) for a in sub])

        self.key_attrs = tuple(sorted(aset & parent_attrs))
        self.key_get = pos_of(self.key_attrs)
        self.y_attrs = tuple(sorted(aset & y))
        self.y_get = pos_of(self.y_attrs)
        self.boundary = bool(aset - y)
        # extra output attrs beyond the parent key (Algorithm 5 line 2/3)
        self.extra_y = bool(set(self.y_attrs) - set(self.key_attrs))
        key_y_attrs = sorted(set(self.key_attrs) & y)
        self.key_y_get = _getter([self.y_attrs.index(a) for a in key_y_attrs])
        # per child: key projection of an R_e tuple, and of a y-tuple
        self.ck_get: dict[str, Getter] = {}
        self.cky_get: dict[str, Getter] = {}
        for c in self.children:
            ck = sorted(aset & set(tree.node(c).attrs))
            self.ck_get[c] = pos_of(ck)
            cky = sorted(set(ck) & y)
            self.cky_get[c] = _getter([self.y_attrs.index(a) for a in cky])
        # defining children (generalized nodes): children whose attrs
        # contain this node's — their V_p's union forms the virtual
        # relation R_e (Example 4.2 generalized; see DESIGN.md)
        self.def_children: frozenset[str] = frozenset(
            c for c in self.children
            if self.is_gen and aset <= set(tree.node(c).attrs)
        )
        self.index_gets = tuple(
            (c, self.ck_get[c]) for c in self.children if c not in self.def_children
        )
        # dynamic state
        self.tuples: dict[tuple, int] = {}
        self.def_pres: dict[tuple, int] = {}  # defining-support refcounts
        self.child_index: dict[str, dict[tuple, set]] = {
            c: {} for c, _ in self.index_gets
        }
        self.vs_by_key: dict[tuple, set] = {}
        self.vs_yproj: dict[tuple, int] = {}
        self.needs_kyproj = self.boundary and self.extra_y
        self.vs_key_yproj: dict[tuple, dict[tuple, int]] = {}
        self.live_maintained = bool(self.children) and (
            bool(self.y_attrs) or not self.attrs
        )
        self.live: set | None = set() if self.live_maintained else None
        self.live_idx: dict[str, dict[tuple, set]] = (
            {c: {} for c in self.children} if self.live_maintained else {}
        )
        # filled in by CrownEngine._compile (needs the other nodes). Only
        # downward references: a cycle would keep a dropped engine's
        # views alive until the cyclic garbage collector runs.
        self.kids: tuple[tuple[_Node, Getter], ...] = ()
        self.enum_kids: tuple[tuple[_Node, Getter], ...] = ()
        self.layout: tuple[str, ...] = ()
        self.live_get: Getter | None = None

    def in_vs(self, t: tuple) -> bool:
        return self.tuples.get(t, -1) == self.n_children

    # -- V_s index bookkeeping (S-UPDATE's derivation counting) --------
    def _vs_add(self, t: tuple) -> tuple[tuple | None, tuple | None]:
        """Add ``t`` to V_s indexes; return (new V_p key, new π_y value)."""
        kv = self.key_get(t)
        s = self.vs_by_key.setdefault(kv, set())
        s.add(t)
        new_vp = kv if (len(s) == 1 and not self.is_root) else None
        yv = self.y_get(t)
        c = self.vs_yproj.get(yv, 0) + 1
        self.vs_yproj[yv] = c
        new_y = yv if c == 1 else None
        if self.needs_kyproj:
            d = self.vs_key_yproj.setdefault(kv, {})
            d[yv] = d.get(yv, 0) + 1
        return new_vp, new_y

    def _vs_remove(self, t: tuple) -> None:
        kv = self.key_get(t)
        s = self.vs_by_key[kv]
        s.discard(t)
        if not s:
            del self.vs_by_key[kv]
        yv = self.y_get(t)
        c = self.vs_yproj[yv] - 1
        if c:
            self.vs_yproj[yv] = c
        else:
            del self.vs_yproj[yv]
        if self.needs_kyproj:
            d = self.vs_key_yproj[kv] if kv in self.vs_key_yproj else None
            if d is not None:
                d[yv] -= 1
                if not d[yv]:
                    del d[yv]
                if not d:
                    del self.vs_key_yproj[kv]


class _WitnessPlan:
    """Compiled delta enumeration for witnesses at one node (Algorithm 6).

    A result is laid out as the S-chain's live values (witness first,
    root last) followed by the subtree results hanging off the chain.
    """

    def __init__(self, w: _Node, nodes: dict[str, _Node], output: tuple[str, ...]) -> None:
        self.node = w
        self.chain: list[_Node] = []  # ancestors of w, root last
        f = w
        while f.parent is not None:
            f = nodes[f.parent]
            self.chain.append(f)
        layout = list(w.y_attrs)
        for f in self.chain:
            layout.extend(f.y_attrs)
        # (chain position, child, key getter on that position's live
        # value): the subtrees enumerated off the chain. Boundary chain
        # nodes contribute only e∩y, which the live values already hold.
        self.parts: list[tuple[int, _Node, Getter]] = []
        prev: _Node | None = None
        for i, f in enumerate([w, *self.chain]):
            if not f.boundary:
                for c, _ in f.enum_kids:
                    if c is not prev:
                        self.parts.append((i, c, f.cky_get[c.name]))
                        layout.extend(c.layout)
            prev = f
        self.out_get = _getter([layout.index(a) for a in output])


class CrownEngine:
    """The paper's framework: join-free change propagation + enumeration.

    Parameters
    ----------
    cq : the (free-connex) conjunctive query.
    tree : a free-connex generalized join tree; ``best_tree(cq)`` when
        omitted (§6.3 heuristic).
    post_filter : optional predicate over result dicts, applied at
        emission only (selections over output attrs, e.g. SNB Q3's
        ``<>``); internal views maintain the unfiltered query.
    emit_deltas : when False, ``apply`` skips witness detection and
        delta enumeration (pure maintenance mode, used by the
        enclosureness experiments and for bulk loading).
    """

    def __init__(
        self,
        cq: CQ,
        tree: JoinTree | None = None,
        post_filter: Callable[[dict[str, object]], bool] | None = None,
        emit_deltas: bool = True,
    ) -> None:
        self.cq = cq
        self.tree = tree if tree is not None else best_tree(cq)
        if (
            tuple((r.name, r.attrs) for r in self.tree.cq.relations)
            != tuple((r.name, r.attrs) for r in cq.relations)
            or set(self.tree.cq.output) != set(cq.output)
        ):
            raise ValueError("tree was built for a different query/output")
        if not self.tree.is_free_connex_tree():
            raise ValueError("tree is not a valid free-connex join tree")
        self.post_filter = post_filter
        self.emit_deltas = emit_deltas
        y = cq.output_set
        self.nodes: dict[str, _Node] = {
            n: _Node(self.tree, n, y) for n in self.tree.nodes
        }
        self._root = self.nodes[self.tree.root]
        self._compile()
        # dispatch: relation → (name, node, selection predicates, arity),
        # and stream → the atoms it feeds (self-join copies)
        self._atoms: dict[str, tuple[str, _Node, tuple, int]] = {
            r.name: (
                r.name,
                self.nodes[self.tree.relation_node(r.name)],
                tuple(p for rel, p in cq.selections if rel == r.name),
                len(r.attrs),
            )
            for r in cq.relations
        }
        self._streams: dict[str, list[tuple[str, _Node, tuple, int]]] = {}
        for r in cq.relations:
            self._streams.setdefault(r.stream, []).append(self._atoms[r.name])
        # live nodes ordered root-first (deletion check is top-down)
        order = {n: i for i, n in enumerate(self.tree.subtree(self.tree.root))}
        self._live_nodes = sorted(
            (n for n in self.nodes.values() if n.live_maintained),
            key=lambda n: order[n.name],
        )
        self.stats = {"counter_changes": 0, "updates": 0, "deltas": 0}

    def _compile(self) -> None:
        """Slot plans, in one bottom-up pass over the tree: each node's
        subtree-result layout, the output projection of the root's and of
        each witness node's layout, and each live node's V_l projection."""
        output = self.cq.output
        for name in self.tree.postorder():
            node = self.nodes[name]
            node.kids = tuple((self.nodes[c], node.ck_get[c]) for c in node.children)
            # a boundary child without extra output attrs contributes
            # nothing but ∅ (Algorithm 5 line 2), so it is left out
            node.enum_kids = tuple(
                (c, get) for c, get in node.kids if not c.boundary or c.extra_y
            )
            if node.boundary:
                node.layout = node.y_attrs
            else:
                node.layout = node.attrs + tuple(
                    chain.from_iterable(c.layout for c, _ in node.enum_kids)
                )
            if node.live_maintained:
                node.live_get = _getter([output.index(a) for a in node.y_attrs])
        self._root_get = _getter([self._root.layout.index(a) for a in output])
        self._witness: dict[str, _WitnessPlan] = {
            name: _WitnessPlan(node, self.nodes, output)
            for name, node in self.nodes.items()
            if node.parent and node.y_attrs and self.nodes[node.parent].live_maintained
        }

    # ------------------------------------------------------------------
    # update entry points
    # ------------------------------------------------------------------
    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        """Process one update; return the delta as ``[(±1, y-tuple)]``.
        Streams that feed no atom of the query are ignored."""
        out: list[tuple[int, tuple]] = []
        for rel, node, preds, arity in self._streams.get(u.stream, ()):
            out.extend(self._route(rel, node, preds, arity, u.tuple, u.is_insert))
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def apply_atom(self, rel: str, t: tuple, is_insert: bool) -> list[tuple[int, tuple]]:
        """Atom-level update (used by the HyperCube-partitioned engine,
        which dispatches each self-join copy independently)."""
        if rel not in self._atoms:
            raise ValueError(f"{self.cq.name} has no relation {rel!r}")
        out = self._route(*self._atoms[rel], t, is_insert)
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def _route(
        self, rel: str, node: _Node, preds: tuple, arity: int, t: tuple, is_insert: bool
    ) -> list[tuple[int, tuple]]:
        if len(t) != arity:
            raise ValueError(
                f"{rel} has arity {arity}, got a {len(t)}-tuple {t!r}"
            )
        for p in preds:
            if not p(t):
                return []  # §7.2: selection discards the update in O(1)
        return self._apply_atom(node, t, is_insert)

    def run(self, seq: Iterable[Update]) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for u in seq:
            out.extend(self.apply(u))
        return out

    def bulk_load(self, db: dict[str, Iterable[tuple]]) -> None:
        """Load initial data (insertion-only, deltas suppressed), then
        rebuild live views from one full enumeration (O(|Q(D)|))."""
        keep = self.emit_deltas
        self.emit_deltas = False
        for stream, rows in db.items():
            for t in rows:
                self.apply(Update(stream, tuple(t), True))
        self.emit_deltas = keep
        if self.emit_deltas:
            self.rebuild_live()

    def _apply_atom(self, node: _Node, t: tuple, is_insert: bool) -> list[tuple[int, tuple]]:
        if is_insert:
            if t in node.tuples:
                return []  # set semantics: non-effective update
            changes = self._insert_propagate(node, t)
            if not self.emit_deltas:
                return []
            results = self._collect_deltas(changes)
            if results:
                self._live_insert(results)
            sign = 1
        else:
            if t not in node.tuples:
                return []
            changes, plan = self._delete_probe(node, t)
            if not self.emit_deltas:
                self._delete_apply(plan)
                return []
            results = self._collect_deltas(changes)
            self._delete_apply(plan)
            if results:
                self._live_delete(results)
            sign = -1
        pf = self.post_filter
        if pf is None:
            return [(sign, r) for r in results]
        output = self.cq.output
        return [(sign, r) for r in results if pf(dict(zip(output, r)))]

    # ------------------------------------------------------------------
    # propagation (Algorithms 2–4, level-wise along the path to root)
    # ------------------------------------------------------------------
    def _insert_propagate(self, node: _Node, t: tuple) -> dict[str, dict[str, set]]:
        changes: dict[str, dict[str, set]] = {}
        # R-UPDATE (Algorithm 4): count satisfied children
        cnt = self._child_sat_count(node, t)
        for c, get in node.index_gets:
            node.child_index[c].setdefault(get(t), set()).add(t)
        node.tuples[t] = cnt
        self.stats["counter_changes"] += 1
        entering: list[tuple] = [t] if cnt == node.n_children else []
        while True:
            vs_d, y_d, vp_d = set(), set(), set()
            for t2 in entering:
                vs_d.add(t2)
                new_vp, new_y = node._vs_add(t2)
                if new_vp is not None:
                    vp_d.add(new_vp)
                if new_y is not None:
                    y_d.add(new_y)
            if vs_d:
                changes[node.name] = {"vs": vs_d, "y": y_d, "vp": vp_d}
            if node.is_root or not vp_d:
                break
            child, node = node, self.nodes[node.parent]
            entering = []
            if child.name in node.def_children:
                # P-UPDATE from a defining child of a generalized node:
                # the child's new V_p keys are candidate tuples of the
                # virtual relation R_e (intersection counting, eq. (4),
                # generalized to mixed-key children)
                for kv in vp_d:
                    if kv in node.def_pres:
                        node.def_pres[kv] += 1
                        c2 = node.tuples[kv] + 1
                        node.tuples[kv] = c2
                        self.stats["counter_changes"] += 1
                        if c2 == node.n_children:
                            entering.append(kv)
                    else:
                        node.def_pres[kv] = 1
                        c2 = self._child_sat_count(node, kv)
                        node.tuples[kv] = c2
                        self.stats["counter_changes"] += 1
                        for c, get in node.index_gets:
                            node.child_index[c].setdefault(get(kv), set()).add(kv)
                        if c2 == node.n_children:
                            entering.append(kv)
            else:
                # P-UPDATE (Algorithm 3): bump counters of matching tuples
                idx = node.child_index[child.name]
                for kv in vp_d:
                    for t2 in idx.get(kv, ()):
                        c2 = node.tuples[t2] + 1
                        node.tuples[t2] = c2
                        self.stats["counter_changes"] += 1
                        if c2 == node.n_children:
                            entering.append(t2)
        return changes

    @staticmethod
    def _child_sat_count(node: _Node, t: tuple) -> int:
        """#children c with t[key(c)] ∈ V_p(c) (Algorithm 4 lines 3–5)."""
        return sum(get(t) in c.vs_by_key for c, get in node.kids)

    def _delete_probe(
        self, node: _Node, t: tuple
    ) -> tuple[dict[str, dict[str, set]], list]:
        """Non-mutating pass: compute all view changes + an apply plan."""
        changes: dict[str, dict[str, set]] = {}
        plan: list[dict] = []
        leaving: set = {t} if node.in_vs(t) else set()
        child_name: str | None = None
        vp_below: set = set()
        while True:
            y_d, vp_d = set(), set()
            if leaving:
                ycnt: dict[tuple, int] = {}
                kcnt: dict[tuple, int] = {}
                for t2 in leaving:
                    yv, kv = node.y_get(t2), node.key_get(t2)
                    ycnt[yv] = ycnt.get(yv, 0) + 1
                    kcnt[kv] = kcnt.get(kv, 0) + 1
                for yv, c in ycnt.items():
                    if node.vs_yproj.get(yv, 0) == c:
                        y_d.add(yv)
                for kv, c in kcnt.items():
                    if not node.is_root and len(node.vs_by_key.get(kv, ())) == c:
                        vp_d.add(kv)
                changes[node.name] = {"vs": set(leaving), "y": y_d, "vp": vp_d}
            plan.append(
                {
                    "node": node,
                    "child": child_name,
                    "vp_below": vp_below,
                    "leaving": set(leaving),
                    "removed": t if child_name is None else None,
                }
            )
            if node.is_root or not vp_d:
                break
            child_name, vp_below = node.name, vp_d
            node = self.nodes[node.parent]
            leaving = set()
            if child_name in node.def_children:
                for kv in vp_d:
                    if node.tuples.get(kv, -1) == node.n_children:
                        leaving.add(kv)
            else:
                idx = node.child_index[child_name]
                for kv in vp_d:
                    for t2 in idx.get(kv, ()):
                        if node.tuples[t2] == node.n_children:
                            leaving.add(t2)
        return changes, plan

    def _delete_apply(self, plan: list[dict]) -> None:
        for lvl in plan:
            node = lvl["node"]
            if lvl["removed"] is not None:
                t = lvl["removed"]
                del node.tuples[t]
                self.stats["counter_changes"] += 1
                for c, get in node.index_gets:
                    kv = get(t)
                    s = node.child_index[c].get(kv)
                    if s is not None:
                        s.discard(t)
                        if not s:
                            del node.child_index[c][kv]
            else:
                if lvl["child"] in node.def_children:
                    for kv in lvl["vp_below"]:
                        node.tuples[kv] -= 1
                        self.stats["counter_changes"] += 1
                        node.def_pres[kv] -= 1
                        if node.def_pres[kv] == 0:
                            # last defining support gone: candidate vanishes
                            del node.def_pres[kv]
                            del node.tuples[kv]
                            for c, get in node.index_gets:
                                ck = get(kv)
                                s = node.child_index[c].get(ck)
                                if s is not None:
                                    s.discard(kv)
                                    if not s:
                                        del node.child_index[c][ck]
                else:
                    idx = node.child_index[lvl["child"]]
                    for kv in lvl["vp_below"]:
                        for t2 in idx.get(kv, ()):
                            node.tuples[t2] -= 1
                            self.stats["counter_changes"] += 1
            for t2 in lvl["leaving"]:
                node._vs_remove(t2)

    # ------------------------------------------------------------------
    # witnesses (Def. 5.6) and delta enumeration (Algorithm 6)
    # ------------------------------------------------------------------
    def _collect_deltas(self, changes: dict[str, dict[str, set]]) -> list[tuple]:
        """All results claimed by this update's witnesses, in output order."""
        results: list[tuple] = []
        for name, ch in changes.items():
            node = self.nodes[name]
            if node.is_root:
                for t in ch["vs"]:
                    results.extend(map(self._root_get, self._enum_tuple(node, t)))
                continue
            plan = self._witness.get(name)
            if plan is None:
                continue
            parent = plan.chain[0]
            excl = changes[parent.name]["y"] if parent.name in changes else _NO_Y
            pidx = parent.live_idx[name]
            for yv in ch["y"]:
                if any(lv not in excl for lv in pidx.get(node.key_y_get(yv), ())):
                    results.extend(self._enum_witness(plan, yv, changes))
        return results

    def _enum_witness(
        self, plan: _WitnessPlan, wval: tuple, changes: dict[str, dict[str, set]]
    ) -> Iterator[tuple]:
        # S-chain: join the witness with live views up to the root,
        # excluding this update's own Δ(π_y V_s) values (disjointness).
        chains: list[tuple[tuple, ...]] = [(wval,)]
        prev = plan.node
        for f in plan.chain:
            excl = changes[f.name]["y"] if f.name in changes else _NO_Y
            idx = f.live_idx[prev.name]
            kget = prev.key_y_get
            chains = [
                lvs + (lv,)
                for lvs in chains
                for lv in idx.get(kget(lvs[-1]), ())
                if lv not in excl
            ]
            if not chains:
                return iter(())
            prev = f
        out: list[tuple] = []
        for lvs in chains:
            parts = [self._enum_key(c, get(lvs[i])) for i, c, get in plan.parts]
            out.extend(_cross(tuple(chain.from_iterable(lvs)), parts))
        return map(plan.out_get, out)

    # ------------------------------------------------------------------
    # full enumeration (Algorithm 5)
    # ------------------------------------------------------------------
    def _enum_tuple(self, node: _Node, t: tuple) -> list[tuple]:
        """Join results of the subtree at ``node`` containing V_s tuple
        ``t``, in ``node.layout`` (requires ``node``'s attrs ⊆ y)."""
        return _cross(t, [self._enum_key(c, get(t)) for c, get in node.enum_kids])

    def _enum_key(self, node: _Node, kv: tuple) -> list[tuple]:
        """FullEnum(T, e, t[key(e)]): results of the subtree at ``node``
        joining a parent V_s tuple whose key projection is ``kv``.
        Invariant: the caller's tuple is in the parent's V_s, hence
        ``kv ∈ V_p`` here. Boundary nodes without extra output attrs
        are never asked (they are not in any ``enum_kids``)."""
        if node.boundary:
            return list(node.vs_key_yproj.get(kv, ()))  # line 3, distinct
        if not node.enum_kids:
            return list(node.vs_by_key.get(kv, ()))
        out: list[tuple] = []
        for t in node.vs_by_key.get(kv, ()):
            out.extend(self._enum_tuple(node, t))
        return out

    def _enum_full(self) -> Iterator[Iterator[tuple]]:
        """Q(D) in output order, one batch per root V_s tuple."""
        root = self._root
        for t in list(root.vs_by_key.get((), ())):
            yield map(self._root_get, self._enum_tuple(root, t))

    def enumerate_full(self) -> Iterator[tuple]:
        """Constant-delay full enumeration of Q(D) (Lemma 5.3)."""
        pf = self.post_filter
        output = self.cq.output
        for results in self._enum_full():
            if pf is None:
                yield from results
            else:
                yield from (r for r in results if pf(dict(zip(output, r))))

    def full_result_set(self) -> set[tuple]:
        return set(self.enumerate_full())

    # ------------------------------------------------------------------
    # live views (Lemma 5.5), maintained after each delta enumeration
    # ------------------------------------------------------------------
    def _live_add(self, node: _Node, lv: tuple) -> None:
        node.live.add(lv)
        for c, get in node.cky_get.items():
            node.live_idx[c].setdefault(get(lv), set()).add(lv)

    def _live_discard(self, node: _Node, lv: tuple) -> None:
        node.live.remove(lv)
        for c, get in node.cky_get.items():
            jv = get(lv)
            s = node.live_idx[c].get(jv)
            if s is not None:
                s.discard(lv)
                if not s:
                    del node.live_idx[c][jv]

    def _live_insert(self, results: list[tuple]) -> None:
        for node in self._live_nodes:
            for lv in set(map(node.live_get, results)) - node.live:
                self._live_add(node, lv)

    def _live_delete(self, results: list[tuple]) -> None:
        # top-down: parent live views settle before children are checked
        for node in self._live_nodes:
            parent = self.nodes[node.parent] if node.parent else None
            pidx = parent.live_idx[node.name] if parent and parent.live is not None else None
            for lv in set(map(node.live_get, results)) & node.live:
                if lv not in node.vs_yproj or (
                    pidx is not None and not pidx.get(node.key_y_get(lv))
                ):
                    self._live_discard(node, lv)

    def rebuild_live(self) -> None:
        """Recompute every live view from one full enumeration."""
        for node in self._live_nodes:
            node.live.clear()
            for c in node.children:
                node.live_idx[c].clear()
        for results in self._enum_full():
            self._live_insert(list(results))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def space(self) -> int:
        """Total stored entries across all views/indexes (Lemma 4.1)."""
        total = 0
        for n in self.nodes.values():
            total += len(n.tuples)
            total += sum(len(s) for idx in n.child_index.values() for s in idx.values())
            total += sum(len(s) for s in n.vs_by_key.values())
            total += len(n.vs_yproj)
            total += sum(len(d) for d in n.vs_key_yproj.values())
            if n.live is not None:
                total += len(n.live)
        return total

    @staticmethod
    def capabilities() -> dict[str, object]:
        """Row of the paper's Table 1 for CROWN."""
        return {
            "system": "CROWN",
            "distributed": True,  # via repro.spark.partitioned
            "full_enumeration": True,
            "delta_enumeration": True,
            "updates": "arbitrary",
            "internal": "this paper",
        }

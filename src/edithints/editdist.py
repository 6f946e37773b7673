"""Edit operations, cost models and edit distances with script backtrace.

The atomic edits are deletions, insertions and relabelings of single
symbols (sequences) or single nodes (trees).  The edit set is symmetric:
every edit has an inverse edit, so any state is reachable from any other.
Distances are shortest-path costs in the resulting move graph, computed
with the standard dynamic programs: Levenshtein for sequences, Zhang-Shasha
for ordered trees.  Both return an :class:`EditScript` realizing the
distance; replaying the script on the source state yields the target state
and the script cost equals the distance exactly.  Without a script, the
unit-cost sequence distances of a row run bit-parallel over a pack of many
sequences in one integer, and the tree distances of a row fill Zhang-Shasha's
tables column by column over a trie of the targets' keyroots, whose shared
prefixes fill once (see :func:`distance_row`), both to the same bits.

Position conventions
--------------------

Sequence positions are 1-based.  ``insert(n, u)`` places ``u`` *at*
position ``n`` of the result (``n = len + 1`` appends), so the inverse of
``insert(n, u)`` is always ``delete(n)``.

Tree edits address nodes by their path of 1-based child indices from the
root; the empty path addresses the root itself.  ``delete_node`` promotes
the node's children into its parent's child list at the node's position
(the root may only be deleted while it has exactly one child, which then
becomes the root).  ``insert_node`` carries the path at which the *new*
node will live and a ``child_span = (first, count)``: the new node is
placed at child position ``first = path[-1]`` of its parent and adopts the
parent's former children ``[first, first + count)``.  With the empty path
the new node becomes the root and must adopt the old root (``child_span =
(1, 1)``).  Under these rules delete and insert are mutually inverse
(``insert_node`` at ``p`` undoes ``delete_node`` at ``p`` and vice versa)
and every Zhang-Shasha-optimal script is expressible, including scripts
that replace the root.

Symmetric cost models assign each label one indel cost (deletion and
insertion cost the same) and each unordered label pair a relabel cost;
``cost_relabel(a, a) = 0`` and infinite relabel costs are allowed (they
simply exclude those node matches).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .states import Label, SequenceState, TreeState, serialize_state

INF = math.inf


class EditError(ValueError):
    """An edit addresses an invalid position or is otherwise inapplicable."""


# ---------------------------------------------------------------------------
# cost models


@dataclass(frozen=True)
class CostModel:
    """Symmetric edit cost function.

    ``indel`` maps labels to their (positive) deletion/insertion cost,
    ``relabel`` maps sorted label pairs to a non-negative (possibly
    infinite) replacement cost; its labels are non-empty and free of
    ``|``, which separates the pair in :meth:`to_dict`.  Unlisted labels
    fall back to the defaults.
    ``is_unit`` (derived, not a field) is true when every indel and every
    relabel of distinct labels costs 1.
    """

    indel_default: float = 1.0
    relabel_default: float = 1.0
    indel: dict = field(default_factory=dict)
    relabel: dict = field(default_factory=dict)

    def __post_init__(self):
        # finite indels keep every distance finite: delete-all plus
        # insert-all always connects two states
        if not 0 < self.indel_default < INF:
            raise ValueError("indel costs must be finite positive")
        if not self.relabel_default >= 0:
            raise ValueError("relabel costs must be non-negative")
        for label, cost in self.indel.items():
            if not 0 < cost < INF:
                raise ValueError(f"indel cost for {label!r} must be finite positive")
        norm = {}
        for key, cost in self.relabel.items():
            a, b = key
            if not (a and b) or "|" in a or "|" in b:
                raise ValueError(f"relabel labels {key!r} must be non-empty and free of '|'")
            if not cost >= 0:
                raise ValueError(f"relabel cost for {key!r} must be non-negative")
            norm[(a, b) if a <= b else (b, a)] = float(cost)
        object.__setattr__(self, "relabel", norm)
        # a private copy of the indels, so that is_unit stays true to them
        object.__setattr__(self, "indel", dict(self.indel))
        unit = (
            self.indel_default == 1
            and self.relabel_default == 1
            and all(c == 1 for c in self.indel.values())
            and all(c == 1 for (a, b), c in norm.items() if a != b)
        )
        object.__setattr__(self, "is_unit", unit)

    def cost_delete(self, label: Label) -> float:
        return self.indel.get(label, self.indel_default)

    # the edit set is symmetric: inserting a label costs the same as
    # deleting it
    cost_insert = cost_delete

    def cost_relabel(self, a: Label, b: Label) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a <= b else (b, a)
        return self.relabel.get(key, self.relabel_default)

    def to_dict(self) -> dict:
        enc = lambda c: "inf" if c == INF else c
        return {
            "indel_default": self.indel_default,
            "relabel_default": enc(self.relabel_default),
            "indel": dict(sorted(self.indel.items())),
            "relabel": {f"{a}|{b}": enc(c) for (a, b), c in sorted(self.relabel.items())},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CostModel":
        def dec(c):
            if isinstance(c, bool) or not isinstance(c, (int, float, str)):
                raise ValueError(f"cost {c!r} is not a number")
            return INF if c == "inf" else float(c)

        unknown = sorted(set(raw) - {"indel_default", "relabel_default", "indel", "relabel"})
        if unknown:
            raise ValueError(f"unknown cost model key {unknown[0]!r}")
        indel, pairs = raw.get("indel", {}), raw.get("relabel", {})
        if not (isinstance(indel, dict) and isinstance(pairs, dict)):
            raise ValueError("'indel' and 'relabel' costs must be JSON objects")
        relabel = {}
        for key, cost in pairs.items():
            a, _, b = key.partition("|")
            relabel[(a, b)] = dec(cost)
        return cls(
            indel_default=dec(raw.get("indel_default", 1.0)),
            relabel_default=dec(raw.get("relabel_default", 1.0)),
            indel={k: dec(v) for k, v in indel.items()},
            relabel=relabel,
        )


UNIT_COSTS = CostModel()


# ---------------------------------------------------------------------------
# edits


class _Edit:
    @cached_property
    def serialized(self) -> str:  # see serialize_edit; made once per edit
        return json.dumps(edit_to_dict(self), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SeqEdit(_Edit):
    kind: str  # delete | insert | relabel
    position: int
    label: Label = None

    def __post_init__(self):
        if self.kind not in ("delete", "insert", "relabel"):
            raise EditError(f"unknown sequence edit kind {self.kind!r}")
        if self.position < 1:
            raise EditError("sequence edit positions are 1-based")
        if (self.label is None) != (self.kind == "delete"):
            raise EditError(f"{self.kind} edit has wrong label presence")


@dataclass(frozen=True)
class TreeEdit(_Edit):
    kind: str  # delete_node | insert_node | relabel_node
    path: tuple
    label: Label = None
    child_span: tuple = None  # (first, count), insert_node only

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))
        if self.kind not in ("delete_node", "insert_node", "relabel_node"):
            raise EditError(f"unknown tree edit kind {self.kind!r}")
        if (self.label is None) != (self.kind == "delete_node"):
            raise EditError(f"{self.kind} edit has wrong label presence")
        if (self.child_span is None) != (self.kind != "insert_node"):
            raise EditError("child_span is for insert_node edits only")
        if self.child_span is not None:
            first, count = self.child_span
            if first < 1 or count < 0:
                raise EditError(f"invalid child_span {self.child_span!r}")
            if self.path and self.path[-1] != first:
                raise EditError(
                    f"insert position {self.path[-1]} disagrees with child_span {self.child_span!r}"
                )
            if not self.path and (first, count) != (1, 1):
                raise EditError("a new root must adopt exactly the old root")
            object.__setattr__(self, "child_span", (int(first), int(count)))


def edit_to_dict(edit) -> dict:
    if isinstance(edit, SeqEdit):
        out = {"kind": edit.kind, "position": edit.position}
        if edit.label is not None:
            out["label"] = edit.label
        return out
    out = {"kind": edit.kind, "path": list(edit.path)}
    if edit.label is not None:
        out["label"] = edit.label
    if edit.child_span is not None:
        out["child_span"] = list(edit.child_span)
    return out


def _index(value, what: str) -> int:
    if type(value) is not int:  # bools and floats are not coerced
        raise EditError(f"edit {what} {value!r} is not an integer")
    return value


def edit_from_dict(raw: dict):
    """The edit that an :func:`edit_to_dict` object describes; any other
    value raises :class:`EditError`."""
    if not isinstance(raw, dict):
        raise EditError(f"an edit is an object, got {raw!r}")
    kind, label, span = raw.get("kind"), raw.get("label"), raw.get("child_span")
    if label is not None and not isinstance(label, str):
        raise EditError(f"edit label {label!r} is not a string")
    if span is not None and not (isinstance(span, list) and len(span) == 2):
        raise EditError(f"child_span {span!r} is not a pair")
    try:
        if kind in ("delete", "insert", "relabel"):
            return SeqEdit(kind, _index(raw["position"], "position"), label)
        if kind in ("delete_node", "insert_node", "relabel_node"):
            path = raw.get("path", [])
            if not isinstance(path, list):
                raise EditError(f"edit path {path!r} is not a list")
            path = tuple(_index(i, "path entry") for i in path)
            if span is not None:
                span = tuple(_index(i, "child_span entry") for i in span)
            return TreeEdit(kind, path, label, span)
    except (KeyError, TypeError) as exc:
        raise EditError(f"malformed {kind} edit: {exc!r}") from exc
    raise EditError(f"unknown edit kind {kind!r}")


def serialize_edit(edit) -> str:
    """Canonical JSON form; used for deduplication and equality checks."""
    return edit.serialized


@dataclass(frozen=True)
class EditScript:
    """An ordered list of edits with its total cost.

    Applying the edits in order to the source state yields the target
    state; when produced by a distance computation the cost equals the
    distance exactly.
    """

    edits: tuple
    total_cost: float

    def __post_init__(self):
        object.__setattr__(self, "edits", tuple(self.edits))


# ---------------------------------------------------------------------------
# applying edits


def _apply_seq(s: SequenceState, e: SeqEdit) -> SequenceState:
    n = len(s)
    if e.kind == "delete":
        if e.position > n:
            raise EditError(f"delete position {e.position} > length {n}")
        return s[: e.position - 1] + s[e.position :]
    if e.kind == "insert":
        if e.position > n + 1:
            raise EditError(f"insert position {e.position} > length+1 {n + 1}")
        return s[: e.position - 1] + (e.label,) + s[e.position - 1 :]
    if e.position > n:
        raise EditError(f"relabel position {e.position} > length {n}")
    return s[: e.position - 1] + (e.label,) + s[e.position :]


def _rebuild(node: TreeState, path, rebuild) -> tuple:
    """The nodes that take the place of ``node`` when the node at ``path``
    below it is replaced by ``rebuild(node)``: a node, or a tuple of nodes
    spliced into the parent (empty removes it)."""
    if not path:
        out = rebuild(node)
        return (out,) if isinstance(out, TreeState) else tuple(out)
    i = path[0]
    if not 1 <= i <= len(node.children):
        raise EditError(f"path component {i} out of range")
    child = _rebuild(node.children[i - 1], path[1:], rebuild)
    return (TreeState(node.label, node.children[: i - 1] + child + node.children[i:]),)


def _apply_tree(t: TreeState, e: TreeEdit) -> TreeState:
    if e.kind == "relabel_node":
        out = _rebuild(t, e.path, lambda n: TreeState(e.label, n.children))
    elif e.kind == "delete_node":
        if not e.path:
            if len(t.children) != 1:
                raise EditError(
                    "the root may only be deleted while it has exactly one child"
                )
            return t.children[0]
        out = _rebuild(t, e.path, lambda n: n.children)
    else:  # insert_node: e.path is where the new node will live
        first, count = e.child_span
        if not e.path:
            return TreeState(e.label, (t,))

        def insert(parent: TreeState) -> TreeState:
            if first > len(parent.children) + 1 or first + count - 1 > len(parent.children):
                raise EditError(
                    f"child_span {e.child_span} exceeds {len(parent.children)} children"
                )
            node = TreeState(e.label, parent.children[first - 1 : first - 1 + count])
            children = parent.children[: first - 1] + (node,) + parent.children[first - 1 + count :]
            return TreeState(parent.label, children)

        out = _rebuild(t, e.path[:-1], insert)
    if len(out) != 1:
        raise EditError("tree root operations must leave a single root")
    return out[0]


def apply_edit(state, edit):
    """Apply a single edit to a state; raises :class:`EditError` on invalid
    positions."""
    if isinstance(edit, SeqEdit):
        if not isinstance(state, tuple):
            raise EditError("sequence edit applied to non-sequence state")
        return _apply_seq(state, edit)
    if isinstance(edit, TreeEdit):
        if not isinstance(state, TreeState):
            raise EditError("tree edit applied to non-tree state")
        return _apply_tree(state, edit)
    raise EditError(f"unknown edit type {type(edit).__name__}")


# ---------------------------------------------------------------------------
# sequence edit distance (Levenshtein with backtrace)


def _lev_rows(x: SequenceState, y: SequenceState, cost: CostModel):
    """The rows of the Levenshtein table of ``x`` against ``y``, top to
    bottom; row ``i`` holds the distances from ``x[:i]`` to every prefix
    of ``y``."""
    cost_y = [cost.cost_insert(b) for b in y]
    row = list(accumulate(cost_y, initial=0.0))
    yield row
    for a in x:
        cost_a = cost.cost_delete(a)
        left = row[0] + cost_a
        new = [left]
        for diag, up, b, cost_b in zip(row, row[1:], y, cost_y):
            if a != b:
                diag += cost.cost_relabel(a, b)
            up += cost_a
            left += cost_b
            if up < left:
                left = up
            if diag < left:
                left = diag
            new.append(left)
        row = new
        yield row


def seq_distance(x: SequenceState, y: SequenceState, cost: CostModel = UNIT_COSTS):
    """Minimum-cost edit distance between two sequences with a realizing
    script.

    Ties in the dynamic program are broken preferring insert over relabel
    over delete (walking back from the end), which fixes the canonical
    script: substitutions happen in place first, trailing material is
    appended last, e.g. ab -> aac is realized as relabel(2, a), insert(3, c).
    """
    m, n = len(x), len(y)
    dp = list(_lev_rows(x, y, cost))

    # backtrace from the end; applied left to right, the edits before the
    # one taken at (i, j) have made the state start with y[:j - 1] (insert,
    # relabel) or y[:j] (delete), so it sits at position j or j + 1
    edits = []
    i, j = m, n
    while i > 0 or j > 0:
        here = dp[i][j]
        if j > 0 and here == dp[i][j - 1] + cost.cost_insert(y[j - 1]):
            edits.append(SeqEdit("insert", j, y[j - 1]))
            j -= 1
        elif i > 0 and j > 0 and here == dp[i - 1][j - 1] + cost.cost_relabel(x[i - 1], y[j - 1]):
            if x[i - 1] != y[j - 1]:
                edits.append(SeqEdit("relabel", j, y[j - 1]))
            i, j = i - 1, j - 1
        else:
            edits.append(SeqEdit("delete", j + 1))
            i -= 1
    edits.reverse()
    return float(dp[m][n]), EditScript(tuple(edits), float(dp[m][n]))


# ---------------------------------------------------------------------------
# tree edit distance (Zhang-Shasha with mapping backtrace)


class _Annotated:
    """Postorder node labels, leftmost-leaf indices, keyroots and the
    cost-model quantities of a tree that every Zhang-Shasha call with it
    reads.

    ``ids`` numbers each subtree by its structure: ``(label, child ids)``
    is hash-consed through ``intern``, so trees annotated with one intern
    table give equal subtrees equal ids.
    """

    def __init__(self, root: TreeState, cost: CostModel, intern: dict):
        self.cost = cost
        self.labels = labels = []
        self.lml = lml = []  # leftmost leaf descendant, postorder index
        self.parent = parent = []  # postorder index of parent, -1 for root
        self.children = children = []  # postorder indices of children
        self.ids = ids = []  # structural id of each node's subtree

        def walk(node: TreeState) -> int:
            kids = [walk(c) for c in node.children]
            idx = len(labels)
            labels.append(node.label)
            lml.append(lml[kids[0]] if kids else idx)
            children.append(kids)
            parent.append(-1)
            for k in kids:
                parent[k] = idx
            key = node.label, tuple([ids[k] for k in kids])
            ids.append(intern.setdefault(key, len(intern)))
            return idx

        walk(root)
        self.n = len(labels)
        last_for_lml = {}
        for i, leaf in enumerate(lml):
            last_for_lml[leaf] = i
        self.keyroots = sorted(last_for_lml.values())
        self.keyroot_of = [last_for_lml[leaf] for leaf in lml]
        # deletion and insertion cost the same
        self.indel = [cost.cost_delete(lab) for lab in labels]
        self._forests = {}

    def forest(self, k: int) -> tuple:
        """Keyroot ``k``'s subtree in postorder, per node its subtree id,
        indel cost, the offset where its subtree starts and, on the leftmost
        path (offset 0), its label; and the running sums of the indel costs."""
        if k not in self._forests:
            lk, ids, lml, labels = self.lml[k], self.ids, self.lml, self.labels
            nodes = range(lk, k + 1)
            self._forests[k] = (
                [(ids[n], self.indel[n], lml[n] - lk, labels[n] if lml[n] == lk else None) for n in nodes],
                list(accumulate(self.indel[lk : k + 1], initial=0.0)),
            )
        return self._forests[k]


class _Trie:
    """The forest-table columns of a list of target trees, shared.  A
    keyroot's columns are its subtree's nodes in postorder, and a column's
    cells depend only on earlier columns, so target keyroots whose node
    sequences share a prefix (by subtree id) share those columns exactly.
    Each trie node is one column.  ``order`` lists them as the keyroots first
    reach them, a tree's keyroots in postorder: so the column that ends the
    sequence of a subtree, and writes its distances, comes before any column
    that reads them, as :func:`_fill` needs."""

    def __init__(self, trees):
        children, order, seen = [{}], [], set()
        for t in trees:
            for k in t.keyroots:
                if t.ids[k] in seen:  # an equal subtree has the same columns
                    continue
                seen.add(t.ids[k])
                path = [0]
                for node in t.forest(k)[0]:
                    v = children[path[-1]].get(node[0])
                    if v is None:
                        v = children[path[-1]][node[0]] = len(children)
                        children.append({})
                        order.append((v, path[-1], path[node[2]], node))
                    path.append(v)
        self.size = len(children)
        last = {v: p for p, (v, *_) in enumerate(order)}  # a column no other reads goes at once
        for p, (_, parent, begin, _) in enumerate(order):
            last[parent] = last[begin] = p
        drops = [[] for _ in order]
        for v, p in last.items():
            drops[p].append(v)
        self.order = [(*entry, drop) for entry, drop in zip(order, drops)]


# row 0 of each source keyroot's table in a column of _fill: its cell is the
# column's insert alone, as deleting costs INF and every known dict maps the
# source id -1 to INF
_ROW0 = (-1, INF, 0, None)


def _fill(rows, first, order, size, table, relabel) -> list:
    """Fill Zhang-Shasha forest tables column by column; returns the columns.
    ``order`` gives per column its index, its previous column's, the column
    where its node's subtree starts, its node (see :meth:`_Annotated.forest`)
    and the columns no later one reads.  A column holds the tables of one or
    more source keyroots, one below the other: ``rows`` has a :data:`_ROW0` or
    a node per cell after the first.  A cell reads cells above it, earlier
    columns and ``table[target id][source id]``, the subtree-pair distances
    that cells where both forests are whole trees write."""
    cols = [first] * size
    labs = {lab for *_, lab in rows if lab is not None}
    costs_of = {}  # target label -> source label -> its relabel cost
    for v, parent, begin, (tid, c_ins, b, label), drop in order:
        prev, start = cols[parent], cols[begin]
        known = table.get(tid)
        if known is None:
            known = table[tid] = {-1: INF}
        up = INF
        cols[v] = col = [up]
        # each cell is min(delete, insert, match), by comparisons, faster than min()
        if b:  # the column's forest is no whole tree
            for left, (sid, c_del, a, _) in zip(prev[1:], rows):
                up += c_del
                left += c_ins
                if up < left:
                    left = up
                up = start[a] + known[sid]
                if up > left:
                    up = left
                col.append(up)
        else:
            if label not in costs_of:
                costs_of[label] = {lab: relabel(lab, label) for lab in labs}
            costs = costs_of[label]
            for diag, left, (sid, c_del, a, lab) in zip(prev, prev[1:], rows):
                up += c_del
                left += c_ins
                if up < left:
                    left = up
                if lab is None:
                    up = start[a] + known[sid]
                    if up > left:
                        up = left
                else:  # both forests are whole trees
                    up = diag + costs[lab]
                    if up > left:
                        up = left
                    known[sid] = up
                col.append(up)
        for u in drop:
            cols[u] = None
    return cols


class DistanceMemo:
    """What the distance calls of one batch share.  ``table[target id][source
    id]`` keeps the subtree-pair distances that forest tables wrote, by
    structural subtree id: a cell is a minimum of single additions of cells
    inside its two subtrees, so equal subtree pairs get equal bits in any
    call order.  A tree row is one pass of the source's keyroots over the
    :class:`_Trie` of its targets, kept per target list; a source keyroot
    whose id has run over tries holding every one of those targets has
    filled the table for all their subtrees, and is skipped.  Each tree is
    annotated once.

    A memo started from a ``base`` copies its intern table, annotated trees,
    tries and packs, so ids agree and it builds nothing the base has; what
    it adds, its table included, stays its own.  A memo serves one cost
    model, its first call's (or its base's), and holds every tree it
    annotated, so no tree's ``id`` is reused while it lives.  A unit-cost
    sequence row keeps the pack of its targets with the target list.
    """

    def __init__(self, base: DistanceMemo = None):
        self.table = {}  # target subtree id -> source subtree id -> distance
        self._covered = {}  # source keyroot id -> the target root ids it has run over
        self.cost = base.cost if base else None
        self._intern = dict(base._intern) if base else {}  # (label, child ids) -> subtree id
        self._trees = dict(base._trees) if base else {}  # id(tree) -> (tree, its _Annotated)
        self._packs = dict(base._packs) if base else {}  # id(targets) -> (targets, their pack)
        self._tries = dict(base._tries) if base else {}  # target root ids -> their trie

    def annotate(self, tree: TreeState, cost: CostModel) -> _Annotated:
        if self.cost is None:
            self.cost = cost
        elif cost is not self.cost and cost != self.cost:
            raise ValueError("a DistanceMemo serves the one cost model it was first used with")
        entry = self._trees.get(id(tree))
        if entry is None:
            entry = self._trees[id(tree)] = (tree, _Annotated(tree, cost, self._intern))
        return entry[1]

    def pack(self, targets) -> tuple:
        """The pack of a list of sequences (see :func:`_pack`), kept with it."""
        if id(targets) not in self._packs:
            self._packs[id(targets)] = targets, _pack(targets)
        return self._packs[id(targets)][1]

    def trie(self, targets, cost: CostModel) -> tuple:
        """The root ids of a list of trees, which key their trie, and the
        trie, kept by its key."""
        trees = [self.annotate(y, cost) for y in targets]
        key = tuple([t.ids[-1] for t in trees])
        if key not in self._tries:
            self._tries[key] = _Trie(trees)
        return key, self._tries[key]

    def row(self, x: TreeState, targets, cost: CostModel) -> list:
        """The Zhang-Shasha distances from ``x`` to each of ``targets``: the
        keyroots of ``x`` whose ids have not yet run over every target fill
        every column of the targets' trie in one pass."""
        t1 = self.annotate(x, cost)
        key, trie = self.trie(targets, cost)
        rows, first = [], [INF]
        for i in t1.keyroots:
            covered = self._covered.setdefault(t1.ids[i], set())
            if not covered.issuperset(key):
                covered.update(key)
                nodes, column = t1.forest(i)
                off = len(first)
                rows.append(_ROW0)
                rows += [(sid, c, off + a, lab) for sid, c, a, lab in nodes]
                first += column
        if rows:
            _fill(rows, first, trie.order, trie.size, self.table, cost.cost_relabel)
        return [float(self.table[root][t1.ids[-1]]) for root in key]


def _zss_mapping(t1: _Annotated, t2: _Annotated, table):
    """Backtrace one optimal node mapping from the subtree-pair distances
    in ``table``, filling again the part of each keyroot pair's forest
    table that it visits (which writes back the values ``table`` holds).
    Ties prefer insert, then match/relabel, then delete, as in the sequence
    backtrace."""
    relabel, ci = t1.cost.cost_relabel, t2.indel
    mapping = []
    stack = [(t1.n - 1, t2.n - 1)]
    while stack:
        ri, rj = stack.pop()
        ki, kj = t1.keyroot_of[ri], t2.keyroot_of[rj]
        li, lj = t1.lml[ki], t2.lml[kj]
        x, y = ri - li + 1, rj - lj + 1
        # the cells up to (x, y) along kj's one chain of columns: fd[y][x + 1]
        nodes, column = t1.forest(ki)
        rows = [_ROW0] + [(sid, c, 1 + a, lab) for sid, c, a, lab in nodes[:x]]
        chain = [(v, v - 1, node[2], node, ()) for v, node in enumerate(t2.forest(kj)[0][:y], 1)]
        fd = _fill(rows, [INF] + column[: x + 1], chain, y + 1, table, relabel)
        while x > 0 or y > 0:
            ni = li + x - 1
            nj = lj + y - 1
            here = fd[y][x + 1]
            if y > 0 and here == fd[y - 1][x + 1] + ci[nj]:
                y -= 1  # nj inserted
                continue
            if x > 0 and y > 0:
                a = t1.lml[ni] - li
                b = t2.lml[nj] - lj
                if not (a or b):
                    if here == fd[y - 1][x] + relabel(t1.labels[ni], t2.labels[nj]):
                        mapping.append((ni, nj))
                        x, y = x - 1, y - 1
                        continue
                elif here == fd[b][a + 1] + table[t2.ids[nj]][t1.ids[ni]]:
                    stack.append((ni, nj))
                    x, y = a, b
                    continue
            x -= 1  # ni deleted
    return mapping


class _MutNode:
    """Mutable tree node used while materializing an edit script."""

    __slots__ = ("label", "children", "key")

    def __init__(self, label, children, key):
        self.label = label
        self.children = children
        self.key = key


def _build_mut(t: _Annotated) -> _MutNode:
    """Rebuild the annotated tree as mutable nodes keyed by postorder index."""

    def make(idx: int) -> _MutNode:
        return _MutNode(t.labels[idx], [make(k) for k in t.children[idx]], ("s", idx))

    return make(t.n - 1)


def _find(root: _MutNode, key) -> tuple:
    """Path of 1-based child indices to the node with ``key``, and the
    nodes along that path from ``root`` down to the node itself."""

    def search(node):
        if node.key == key:
            return (), [node]
        for i, c in enumerate(node.children, start=1):
            found = search(c)
            if found is not None:
                return (i, *found[0]), [node, *found[1]]
        return None

    found = search(root)
    if found is None:
        raise EditError(f"node {key} not present in working tree")
    return found


def _script_from_mapping(src: _Annotated, tgt: _Annotated, mapping):
    """Turn a Zhang-Shasha node mapping into an applicable edit script.

    Order: deletions of unmapped source nodes (postorder, root deferred),
    relabelings (source pre-order), insertions of unmapped target nodes
    (target pre-order), then the deferred root deletion if the source root
    was unmapped.  Deferring an unmapped root until its remaining children
    have been gathered under the inserted target root keeps every
    intermediate state a valid single-rooted tree, which the fixed
    delete-relabel-insert order alone cannot guarantee.
    """
    map_st = dict(mapping)
    map_ts = {j: i for i, j in mapping}
    root_s = src.n - 1
    root_unmapped = root_s not in map_st

    work = _build_mut(src)
    edits = []
    total = 0.0

    def emit(edit, cost_value):
        nonlocal total
        edits.append(edit)
        total += cost_value

    # deletions, postorder; the root (if unmapped) is deferred to the end
    for i in range(src.n):
        if i in map_st or i == root_s:
            continue
        path, nodes = _find(work, ("s", i))
        emit(TreeEdit("delete_node", path), src.indel[i])
        parent, node = nodes[-2:]
        parent.children[path[-1] - 1 : path[-1]] = node.children

    # relabelings of mapped nodes, pre-order over the working tree, which
    # holds only source nodes until the insertions
    def walk_pre(node, path):
        yield node, path
        for k, c in enumerate(node.children, start=1):
            yield from walk_pre(c, path + (k,))

    for node, path in walk_pre(work, ()):
        idx = node.key[1]
        if idx not in map_st:
            continue
        j = map_st[idx]
        if src.labels[idx] != tgt.labels[j]:
            emit(
                TreeEdit("relabel_node", path, tgt.labels[j]),
                tgt.cost.cost_relabel(src.labels[idx], tgt.labels[j]),
            )
            node.label = tgt.labels[j]

    # insertions, target pre-order; each unmapped target node is created
    # under the working counterpart of its target parent and adopts the
    # contiguous block of children that belong to its target subtree
    def counterpart(node: _MutNode) -> int:
        kind, idx = node.key
        return idx if kind == "t" else map_st[idx]

    def child_toward(q: int, below: int) -> int:
        """The child of q on the path from q down to ``below`` (target ids)."""
        node = below
        while tgt.parent[node] != q:
            node = tgt.parent[node]
        return node

    # target pre-order: subtree j spans postorder indices lml[j]..j, so this
    # key puts each node after the subtrees left of it and before its own
    for j in sorted(range(tgt.n), key=lambda j: (tgt.lml[j], -j)):
        if j in map_ts:
            continue
        q = tgt.parent[j]  # -1 when j is the target root
        if q == -1 and not root_unmapped:
            # new root above the mapped source root
            emit(
                TreeEdit("insert_node", (), tgt.labels[j], (1, 1)),
                tgt.indel[j],
            )
            work = _MutNode(tgt.labels[j], [work], ("t", j))
            continue
        if q == -1:
            path, parent = (), work  # the deferred, unmapped source root adopts all
            first, count = 1, len(parent.children)
        else:
            path, nodes = _find(work, ("s", map_ts[q]) if q in map_ts else ("t", q))
            parent = nodes[-1]
            # rank each working child by the child of q it lies below in the
            # target; a Zhang-Shasha mapping keeps sibling order, so the ranks
            # ascend, and j goes after those below its rank and adopts its own
            order = {c: rank for rank, c in enumerate(tgt.children[q])}
            ranks = [order[child_toward(q, counterpart(child))] for child in parent.children]
            if ranks != sorted(ranks):
                raise AssertionError("working children are out of target sibling order")
            first = 1 + sum(rank < order[j] for rank in ranks)
            count = ranks.count(order[j])
        emit(
            TreeEdit("insert_node", path + (first,), tgt.labels[j], (first, count)),
            tgt.indel[j],
        )
        node = _MutNode(tgt.labels[j], parent.children[first - 1 : first - 1 + count], ("t", j))
        parent.children[first - 1 : first - 1 + count] = [node]

    if root_unmapped:
        if len(work.children) != 1:
            raise AssertionError("deferred root deletion requires a single child")
        emit(TreeEdit("delete_node", ()), src.indel[root_s])
        work = work.children[0]

    return EditScript(tuple(edits), total)


def tree_distance(
    x: TreeState, y: TreeState, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None
):
    """Zhang-Shasha tree edit distance with a realizing edit script.  The
    distance is a row through ``memo`` as in :func:`tree_distance_only`; the
    mapping backtrace then fills again the cells of the tables it visits."""
    memo = DistanceMemo() if memo is None else memo
    dist = memo.row(x, (y,), cost)[0]
    t1, t2 = memo.annotate(x, cost), memo.annotate(y, cost)
    script = _script_from_mapping(t1, t2, _zss_mapping(t1, t2, memo.table))
    if not math.isclose(script.total_cost, dist, rel_tol=1e-12, abs_tol=1e-12):
        raise AssertionError(
            f"script cost {script.total_cost} does not realize distance {dist}"
        )
    return dist, EditScript(script.edits, dist)


def tree_distance_only(
    x: TreeState, y: TreeState, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None
) -> float:
    """The Zhang-Shasha distance alone; ``memo`` shares subtree-pair
    results with the other calls of its batch (None: a fresh memo)."""
    return (DistanceMemo() if memo is None else memo).row(x, (y,), cost)[0]


# ---------------------------------------------------------------------------
# dispatch helpers


def distance_and_script(x, y, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None):
    """The edit distance of two states and a script realizing it; ``memo``
    as in :func:`distance`."""
    if isinstance(x, TreeState):
        return tree_distance(x, y, cost, memo)
    return seq_distance(x, y, cost)


def _pack(patterns) -> tuple:
    """Many sequences' bit masks in one integer: each pattern owns a field of
    ``len(p)`` bits and the zero guard bit above it.  Returns, per label, its
    positions in every field; the union of the fields; bit 0 of each
    non-empty field; and each field's mask."""
    peq, fields, offset = {}, [], 0
    for p in patterns:
        for i, a in enumerate(p, offset):
            peq[a] = peq.get(a, 0) | 1 << i
        fields.append(((1 << len(p)) - 1) << offset)
        offset += len(p) + 1
    mask = sum(fields)
    return peq, mask, mask & ~(mask << 1), fields  # lows: the lowest bit of each run


def _scan(y, pack) -> list:
    """The unit-cost distances from ``y`` to each pattern of ``pack``: the
    recurrence of Myers (1999) in the global form of Hyyrö (2003), run on
    every field in one pass (Hyyrö, Fredriksson & Navarro 2005)."""
    peq, mask, lows, fields = pack
    # bit i of a field of vp (vn) is set when D[i + 1][j] - D[i][j] is +1 (-1)
    # in column j of its pattern's table, so the field sums to D[m][n] - n.
    # Guard bits: eq, vp, vn and hn hold none, so the sum's carry out of a
    # field stops in its guard, and a shift moves a field's top bit into the
    # guard (masked off) and the guard into the next field's bit 0, which
    # lows sets: no bit of one field reaches another
    vp, vn = mask, 0  # column 0: D[i][0] = i
    for b in y:
        eq = peq.get(b, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        # the carry-in 1 is the top row's step D[0][j + 1] - D[0][j]
        hp = hp << 1 | lows
        vp = (hn << 1 | ~(xv | hp)) & mask
        vn = hp & xv
    return [float(len(y) + (vp & f).bit_count() - (vn & f).bit_count()) for f in fields]


def distance(x, y, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None) -> float:
    """The edit distance of two states, without a script.  Tree calls that
    pass one :class:`DistanceMemo` share their subtree-pair results (None: a
    fresh memo); a unit-cost sequence call scans ``y`` over a pack of ``x``
    alone (see :func:`distance_row`)."""
    if isinstance(x, TreeState):
        return tree_distance_only(x, y, cost, memo)
    if not cost.is_unit:
        for row in _lev_rows(x, y, cost):
            pass
        return float(row[-1])
    return _scan(y, _pack((x,)))[0]


def distance_row(x, targets, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None) -> list:
    """The edit distances from ``x`` to each of ``targets``, in order.  A
    tree row is one pass of ``x``'s keyroots over the trie of the targets'
    keyroots (see :meth:`DistanceMemo.row`); a unit-cost sequence row is
    one pass of ``x`` over the pack of ``targets`` (see :func:`_scan`).
    ``memo`` keeps the trie or the pack (None: a fresh memo); any other row
    makes one table per target."""
    if isinstance(x, TreeState):
        return (DistanceMemo() if memo is None else memo).row(x, targets, cost)
    if not cost.is_unit:
        return [distance(x, y, cost) for y in targets]
    return _scan(x, _pack(targets) if memo is None else memo.pack(targets))


def pairwise_distances(states, cost: CostModel = UNIT_COSTS) -> np.ndarray:
    """Symmetric matrix of raw edit distances over a state list.

    Repeated states (equal serialized forms) share one row and column.  A
    unit-cost sequence row is one pass over the pack of the unique states;
    otherwise row ``i`` is the :func:`distance_row` from state ``i`` to the
    states after it.  Both are exact because distances are bitwise
    symmetric.
    """
    index, unique, ids = {}, [], []
    memo = DistanceMemo()
    for s in states:
        key = serialize_state(s)
        if key not in index:
            index[key] = len(unique)
            unique.append(s)
            if isinstance(s, TreeState):
                memo.annotate(s, cost)
        ids.append(index[key])
    out = np.zeros((len(unique), len(unique)))
    for i in range(len(unique)):
        if cost.is_unit and not isinstance(unique[i], TreeState):
            out[i] = distance_row(unique[i], unique, cost, memo)
            continue
        # trees are annotated once, in the matrix's memo; a row's trie and
        # subtree-pair distances live with its own memo, bounding their memory
        row = distance_row(unique[i], unique[i + 1 :], cost, DistanceMemo(memo))
        out[i, i + 1 :] = out[i + 1 :, i] = row
    return out[np.ix_(ids, ids)]

"""Edit operations, cost models and edit distances with script backtrace.

The atomic edits are deletions, insertions and relabelings of single
symbols (sequences) or single nodes (trees).  The edit set is symmetric:
every edit has an inverse edit, so any state is reachable from any other.
Distances are shortest-path costs in the resulting move graph, computed
with the standard dynamic programs: Levenshtein for sequences, Zhang-Shasha
for ordered trees.  Both return an :class:`EditScript` realizing the
distance; replaying the script on the source state yields the target state
and the script cost equals the distance exactly.  Without a script, a
sequence distance under unit costs runs bit-parallel (see :func:`distance`)
and returns the same value.

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
    infinite) replacement cost.  Unlisted labels fall back to the defaults.
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


@dataclass(frozen=True)
class SeqEdit:
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
class TreeEdit:
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
    return json.dumps(edit_to_dict(edit), sort_keys=True, separators=(",", ":"))


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

    def __len__(self):
        return len(self.edits)

    def apply(self, state):
        for edit in self.edits:
            state = apply_edit(state, edit)
        return state


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

    # backtrace, then emit edits left to right tracking the evolving position
    ops = []
    i, j = m, n
    while i > 0 or j > 0:
        here = dp[i][j]
        if j > 0 and here == dp[i][j - 1] + cost.cost_insert(y[j - 1]):
            ops.append(("insert", y[j - 1]))
            j -= 1
        elif i > 0 and j > 0 and here == dp[i - 1][j - 1] + cost.cost_relabel(x[i - 1], y[j - 1]):
            ops.append(("match", y[j - 1]) if x[i - 1] == y[j - 1] else ("relabel", y[j - 1]))
            i, j = i - 1, j - 1
        else:
            ops.append(("delete", None))
            i -= 1
    ops.reverse()

    edits = []
    pos = 1
    for op, label in ops:
        if op == "match":
            pos += 1
        elif op == "relabel":
            edits.append(SeqEdit("relabel", pos, label))
            pos += 1
        elif op == "delete":
            edits.append(SeqEdit("delete", pos))
        else:
            edits.append(SeqEdit("insert", pos, label))
            pos += 1
    return float(dp[m][n]), EditScript(tuple(edits), float(dp[m][n]))


# ---------------------------------------------------------------------------
# tree edit distance (Zhang-Shasha with mapping backtrace)


class _Annotated:
    """Postorder node labels, leftmost-leaf indices and keyroots of a tree."""

    def __init__(self, root: TreeState):
        self.labels = []
        self.lml = []  # leftmost leaf descendant, postorder index
        self.parent = []  # postorder index of parent, -1 for root
        self.children = []  # postorder indices of children

        def walk(node: TreeState) -> int:
            kids = [walk(c) for c in node.children]
            idx = len(self.labels)
            self.labels.append(node.label)
            self.lml.append(self.lml[kids[0]] if kids else idx)
            self.children.append(kids)
            self.parent.append(-1)
            for k in kids:
                self.parent[k] = idx
            return idx

        walk(root)
        self.n = len(self.labels)
        last_for_lml = {}
        for i in range(self.n):
            last_for_lml[self.lml[i]] = i
        self.keyroots = sorted(last_for_lml.values())
        self.keyroot_of = [last_for_lml[self.lml[i]] for i in range(self.n)]


def _zss_tables(t1: _Annotated, t2: _Annotated, cost: CostModel, keep_tables: bool):
    """Zhang-Shasha forest dynamic program.

    Returns the matrix of subtree-pair distances and, when requested, the
    per-keyroot-pair forest tables needed to backtrace a node mapping.
    """
    cd = [cost.cost_delete(lab) for lab in t1.labels]
    ci = [cost.cost_insert(lab) for lab in t2.labels]
    rows = {lab: [cost.cost_relabel(lab, other) for other in t2.labels] for lab in set(t1.labels)}
    relabel = [rows[lab] for lab in t1.labels]
    td = [[0.0] * t2.n for _ in range(t1.n)]
    tables = {} if keep_tables else None
    # per target keyroot: for each forest column its node, insert cost and
    # the column where the node's subtree starts; and the all-insert row
    columns = {}
    for j in t2.keyroots:
        lj = t2.lml[j]
        cols = [(nj, ci[nj], t2.lml[nj] - lj) for nj in range(lj, j + 1)]
        columns[j] = cols, list(accumulate((c for _, c, _ in cols), initial=0.0))
    for i in t1.keyroots:
        li = t1.lml[i]
        for j in t2.keyroots:
            cols, row = columns[j]
            fd = [row]
            for ni in range(li, i + 1):
                prev, c_del, td_i, rel_i = row, cd[ni], td[ni], relabel[ni]
                a = t1.lml[ni] - li
                fd_a = fd[a]
                left = prev[0] + c_del
                row = [left]
                for diag, up, (nj, c_ins, b) in zip(prev, prev[1:], cols):
                    # min(delete, insert, match) by comparisons, faster than min()
                    up += c_del
                    left += c_ins
                    if up < left:
                        left = up
                    if a or b:
                        diag = fd_a[b] + td_i[nj]
                        if diag < left:
                            left = diag
                    else:  # both forests are whole trees
                        diag += rel_i[nj]
                        if diag < left:
                            left = diag
                        td_i[nj] = left
                    row.append(left)
                fd.append(row)
            if keep_tables:
                tables[(i, j)] = fd
    return td, tables


def _zss_mapping(t1: _Annotated, t2: _Annotated, cost: CostModel, td, tables):
    """Backtrace one optimal node mapping.

    Tie preference mirrors the sequence backtrace: insert first, then
    match/relabel, then delete.
    """
    cd = [cost.cost_delete(lab) for lab in t1.labels]
    ci = [cost.cost_insert(lab) for lab in t2.labels]
    mapping = []
    stack = [(t1.n - 1, t2.n - 1)]
    while stack:
        ri, rj = stack.pop()
        ki, kj = t1.keyroot_of[ri], t2.keyroot_of[rj]
        li, lj = t1.lml[ki], t2.lml[kj]
        fd = tables[(ki, kj)]
        x, y = ri - li + 1, rj - lj + 1
        while x > 0 or y > 0:
            ni = li + x - 1
            nj = lj + y - 1
            here = fd[x][y]
            if y > 0 and here == fd[x][y - 1] + ci[nj]:
                y -= 1  # nj inserted
                continue
            if x > 0 and y > 0:
                if t1.lml[ni] == li and t2.lml[nj] == lj:
                    if here == fd[x - 1][y - 1] + cost.cost_relabel(
                        t1.labels[ni], t2.labels[nj]
                    ):
                        mapping.append((ni, nj))
                        x, y = x - 1, y - 1
                        continue
                else:
                    a = t1.lml[ni] - li
                    b = t2.lml[nj] - lj
                    if here == fd[a][b] + td[ni][nj]:
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


def _path_of(root: _MutNode, key) -> tuple:
    """Path of 1-based child indices to the node with ``key``."""

    def search(node, acc):
        if node.key == key:
            return acc
        for i, c in enumerate(node.children, start=1):
            found = search(c, acc + (i,))
            if found is not None:
                return found
        return None

    path = search(root, ())
    if path is None:
        raise EditError(f"node {key} not present in working tree")
    return path


def _script_from_mapping(src: _Annotated, tgt: _Annotated, mapping, cost: CostModel):
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
        path = _path_of(work, ("s", i))
        emit(TreeEdit("delete_node", path), cost.cost_delete(src.labels[i]))
        parent = work
        for step in path[:-1]:
            parent = parent.children[step - 1]
        pos = path[-1]
        node = parent.children[pos - 1]
        parent.children[pos - 1 : pos] = node.children

    # relabelings of mapped nodes, pre-order over the working tree
    def walk_pre(node):
        yield node
        for c in node.children:
            yield from walk_pre(c)

    for node in list(walk_pre(work)):
        kind, idx = node.key
        if kind != "s" or idx not in map_st:
            continue
        j = map_st[idx]
        if src.labels[idx] != tgt.labels[j]:
            emit(
                TreeEdit("relabel_node", _path_of(work, node.key), tgt.labels[j]),
                cost.cost_relabel(src.labels[idx], tgt.labels[j]),
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

    tgt_pre = []

    def walk_tgt(j: int):
        tgt_pre.append(j)
        for k in tgt.children[j]:
            walk_tgt(k)

    walk_tgt(tgt.n - 1)

    for j in tgt_pre:
        if j in map_ts:
            continue
        q = tgt.parent[j]  # -1 when j is the target root
        if q == -1 and not root_unmapped:
            # new root above the mapped source root
            emit(
                TreeEdit("insert_node", (), tgt.labels[j], (1, 1)),
                cost.cost_insert(tgt.labels[j]),
            )
            work = _MutNode(tgt.labels[j], [work], ("t", j))
            continue
        if q == -1:
            parent = work  # the deferred, unmapped source root adopts all
            first, count = 1, len(parent.children)
        else:
            parent_key = ("s", map_ts[q]) if q in map_ts else ("t", q)
            parent = work
            for step in _path_of(work, parent_key):
                parent = parent.children[step - 1]
            # order of anchors within q's target child list decides where
            # the new node goes when it adopts nothing
            order = {c: rank for rank, c in enumerate(tgt.children[q])}
            first = None
            count = 0
            before = 0
            for pos, child in enumerate(parent.children, start=1):
                anchor = child_toward(q, counterpart(child))
                if anchor == j:
                    if first is not None and first + count != pos:
                        raise AssertionError("adopted children are not contiguous")
                    if first is None:
                        first = pos
                    count += 1
                elif order[anchor] < order[j]:
                    before += 1
            if first is None:
                first = before + 1
        emit(
            TreeEdit(
                "insert_node",
                _path_of(work, parent.key) + (first,),
                tgt.labels[j],
                (first, count),
            ),
            cost.cost_insert(tgt.labels[j]),
        )
        node = _MutNode(tgt.labels[j], parent.children[first - 1 : first - 1 + count], ("t", j))
        parent.children[first - 1 : first - 1 + count] = [node]

    if root_unmapped:
        if len(work.children) != 1:
            raise AssertionError("deferred root deletion requires a single child")
        emit(TreeEdit("delete_node", ()), cost.cost_delete(src.labels[root_s]))
        work = work.children[0]

    return EditScript(tuple(edits), total)


def tree_distance(x: TreeState, y: TreeState, cost: CostModel = UNIT_COSTS):
    """Zhang-Shasha tree edit distance with a realizing edit script."""
    t1, t2 = _Annotated(x), _Annotated(y)
    td, tables = _zss_tables(t1, t2, cost, keep_tables=True)
    dist = float(td[-1][-1])
    mapping = _zss_mapping(t1, t2, cost, td, tables)
    script = _script_from_mapping(t1, t2, mapping, cost)
    if not math.isclose(script.total_cost, dist, rel_tol=1e-12, abs_tol=1e-12):
        raise AssertionError(
            f"script cost {script.total_cost} does not realize distance {dist}"
        )
    return dist, EditScript(script.edits, dist)


def tree_distance_only(x: TreeState, y: TreeState, cost: CostModel = UNIT_COSTS) -> float:
    t1, t2 = _Annotated(x), _Annotated(y)
    td, _ = _zss_tables(t1, t2, cost, keep_tables=False)
    return float(td[-1][-1])


# ---------------------------------------------------------------------------
# dispatch helpers


def distance_and_script(x, y, cost: CostModel = UNIT_COSTS):
    if isinstance(x, TreeState):
        return tree_distance(x, y, cost)
    return seq_distance(x, y, cost)


def distance(x, y, cost: CostModel = UNIT_COSTS) -> float:
    """The edit distance of two states, without a script.

    Under unit costs a sequence distance runs the bit-parallel recurrence
    of Myers (1999) in the global form of Hyyrö (2003): bit ``i`` of
    ``vp`` (``vn``) is set when ``D[i + 1][j] - D[i][j]`` is +1 (-1) in
    column ``j`` of the table of ``x`` against ``y``, so the last column
    sums to ``D[m][n]``.  The result is the table's integer, so it equals
    the dynamic program's value exactly.
    """
    if isinstance(x, TreeState):
        return tree_distance_only(x, y, cost)
    if not cost.is_unit:
        for row in _lev_rows(x, y, cost):
            pass
        return float(row[-1])
    peq = {}  # label -> bit mask of its positions in x
    for i, a in enumerate(x):
        peq[a] = peq.get(a, 0) | 1 << i
    mask = (1 << len(x)) - 1
    vp, vn = mask, 0  # column 0: D[i][0] = i
    for b in y:
        eq = peq.get(b, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        # the carry-in 1 is the top row's step D[0][j + 1] - D[0][j]
        hp = hp << 1 | 1
        vp = (hn << 1 | ~(xv | hp)) & mask
        vn = hp & xv
    return float(len(y) + vp.bit_count() - vn.bit_count())


def pairwise_distances(states, cost: CostModel = UNIT_COSTS) -> np.ndarray:
    """Symmetric matrix of raw edit distances over a state list.

    Each unordered pair of distinct states is computed once; repeated
    states (equal serialized forms) share one row and column.  This is
    exact because distances are bitwise symmetric.
    """
    index, unique, ids = {}, [], []
    for s in states:
        key = serialize_state(s)
        if key not in index:
            index[key] = len(unique)
            unique.append(s)
        ids.append(index[key])
    out = np.zeros((len(unique), len(unique)))
    for i in range(len(unique)):
        for j in range(i + 1, len(unique)):
            out[i, j] = out[j, i] = distance(unique[i], unique[j], cost)
    return out[np.ix_(ids, ids)]

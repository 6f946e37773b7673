"""Edit operations, cost models and edit distances with script backtrace.

The atomic edits are deletions, insertions and relabelings of single
symbols (sequences) or single nodes (trees).  The edit set is symmetric:
every edit has an inverse edit, so any state is reachable from any other.
Distances are computed with the standard dynamic programs: Levenshtein for
sequences, Zhang-Shasha for ordered trees.  They are shortest-path costs in
the move graph when ``relabel(a, c) <= relabel(a, b) + relabel(b, c)`` and
``indel(a) <= relabel(a, b) + indel(b)`` for all labels; otherwise a path
can cost less (relabels a-b and b-c at 0.1 and a-c at 5: the distance from
a to c is 2.0, the path through b 0.2).  Both return an :class:`EditScript`
realizing the distance; replaying the script on the source state yields
the target state and the script cost equals the distance exactly.  Without
a script, every distance is a cell of :func:`distance_rows`, whose memo
picks the route: unit-cost sequences run bit-parallel over a pack of the
targets in one integer, and the rest (a sequence as the chain tree of its
symbols) fill Zhang-Shasha's tables in one pass of numpy wavefronts over a
trie of the sources' keyroots (the rows) and one of the targets' (the
columns), whose shared prefixes fill once, to the same bits.

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

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii as _quote  # json.dumps' string form

import numpy as np

from .states import Label, SequenceState, TreeState

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
    relabel of distinct labels costs 1.  ``rows[a][b]`` (derived) is
    ``cost_relabel(a, b)``, each row and entry made at its first read.
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
        object.__setattr__(self, "rows", _Lazy(lambda a: _Lazy(partial(self.cost_relabel, a))))

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


class _Lazy(dict):
    """A dict whose missing value for a key is ``make(key)``, then kept."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


UNIT_COSTS = CostModel()


# ---------------------------------------------------------------------------
# edits


class _Edit:
    @cached_property
    def serialized(self) -> str:
        """What ``json.dumps(edit_to_dict(self), sort_keys=True,
        separators=(",", ":"))`` writes, made once per edit: the keys in
        sorted order, the label as json quotes it, the integers exact."""
        label = "" if self.label is None else f',"label":{_quote(self.label)}'
        if isinstance(self, SeqEdit):
            return f'{{"kind":"{self.kind}"{label},"position":{self.position}}}'
        span = "" if self.child_span is None else '"child_span":[%d,%d],' % self.child_span
        return f'{{{span}"kind":"{self.kind}"{label},"path":[{",".join(map(str, self.path))}]}}'


@dataclass(frozen=True)
class SeqEdit(_Edit):
    kind: str  # delete | insert | relabel
    position: int
    label: Label = None

    def __post_init__(self):
        if self.kind not in ("delete", "insert", "relabel"):
            raise EditError(f"unknown sequence edit kind {self.kind!r}")
        if _index(self.position, "position") < 1:
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
        object.__setattr__(self, "path", tuple(_index(i, "path entry") for i in self.path))
        if self.kind not in ("delete_node", "insert_node", "relabel_node"):
            raise EditError(f"unknown tree edit kind {self.kind!r}")
        if (self.label is None) != (self.kind == "delete_node"):
            raise EditError(f"{self.kind} edit has wrong label presence")
        if (self.child_span is None) != (self.kind != "insert_node"):
            raise EditError("child_span is for insert_node edits only")
        if self.child_span is not None:
            first, count = (_index(i, "child_span entry") for i in self.child_span)
            if first < 1 or count < 0:
                raise EditError(f"invalid child_span {self.child_span!r}")
            if self.path and self.path[-1] != first:
                raise EditError(
                    f"insert position {self.path[-1]} disagrees with child_span {self.child_span!r}"
                )
            if not self.path and (first, count) != (1, 1):
                raise EditError("a new root must adopt exactly the old root")
            object.__setattr__(self, "child_span", (first, count))


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
            return SeqEdit(kind, raw["position"], label)
        if kind in ("delete_node", "insert_node", "relabel_node"):
            path = raw.get("path", [])
            if not isinstance(path, list):
                raise EditError(f"edit path {path!r} is not a list")
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


def _lev_rows(x: SequenceState, y: SequenceState, cost: CostModel, ins: list):
    """The rows of the Levenshtein table of ``x`` against ``y``, top to
    bottom; row ``i`` holds the distances from ``x[:i]`` to every prefix
    of ``y``.  ``ins`` lists the insert costs of ``y``'s symbols."""
    row = list(accumulate(ins, initial=0.0))
    yield row
    for a, cost_a in zip(x, map(cost.cost_delete, x)):
        rel = cost.rows[a]
        left = row[0] + cost_a
        new = [left]
        for diag, up, b, cost_b in zip(row, row[1:], y, ins):
            diag += rel[b]  # 0.0 for b == a: diag is never -0.0
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
    ins, rows = list(map(cost.cost_insert, y)), cost.rows
    dp = list(_lev_rows(x, y, cost, ins))

    # backtrace from the end; applied left to right, the edits before the
    # one taken at (i, j) have made the state start with y[:j - 1] (insert,
    # relabel) or y[:j] (delete), so it sits at position j or j + 1
    edits = []
    i, j = m, n
    while i > 0 or j > 0:
        here = dp[i][j]
        if j > 0 and here == dp[i][j - 1] + ins[j - 1]:
            edits.append(SeqEdit("insert", j, y[j - 1]))
            j -= 1
        elif i > 0 and j > 0 and here == dp[i - 1][j - 1] + rows[x[i - 1]][y[j - 1]]:
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
    """A tree's nodes in postorder as flat lists, made in one walk: per node
    its label, leftmost leaf (``lml``), children, indel cost, keyroot (the
    last node of its leftmost leaf, ``keyroot_of``) and subtree id (``ids``:
    ``(label, child ids)`` hash-consed through ``intern``, so trees annotated
    with one intern table give equal subtrees equal ids).  Keyroot ``k``'s
    forest is the node range ``lml[k]`` to ``k`` of these lists, ``key`` the
    root's id.  A sequence is the chain tree of its symbols, each the parent
    of the one before: its one keyroot is its last symbol and each prefix a
    whole tree, so Zhang-Shasha is Levenshtein on it; ``()`` has key -1."""

    def __init__(self, root, cost: CostModel, intern: dict):
        self.cost = cost
        if isinstance(root, TreeState):
            post, stack = [], [root]
            while stack:  # the pre-order that visits children right to left
                node = stack.pop()
                post.append(node)
                stack.extend(node.children)
            post.reverse()  # postorder, children left to right
            self.labels = labels = [node.label for node in post]
            arity = [len(node.children) for node in post]
        else:
            self.labels = labels = list(root)
            arity = [0] + [1] * len(labels)  # a symbol's child: the one before it
        self.lml, self.children, self.ids = lml, children, ids = [], [], []
        done = []  # the finished subtrees whose parent is still to come
        for i, (label, count) in enumerate(zip(labels, arity)):
            first = len(done) - count
            kids = done[first:]
            del done[first:]
            lml.append(lml[kids[0]] if kids else i)
            key = label, tuple([ids[k] for k in kids])
            done.append(i)
            children.append(kids)
            ids.append(intern.setdefault(key, len(intern)))
        self.key = ids[-1] if ids else -1
        self.n = len(labels)
        last_for_lml = dict(zip(lml, range(self.n)))  # the last node of each leftmost leaf
        self.keyroots = sorted(last_for_lml.values())
        self.keyroot_of = [last_for_lml[leaf] for leaf in lml]
        # deletion and insertion cost the same
        self.indel = list(map(cost.cost_delete, labels))


class _Trie:
    """Zhang-Shasha forests of one side of a pass, shared.  A keyroot's
    forests are the prefixes of its subtree's nodes in postorder, so
    keyroots whose node sequences share a prefix (by subtree id) share those
    forests.  Each trie node is one forest, a column on the target side and
    a row on the source side, node 0 the empty one.  The trie walks every
    keyroot forest of ``trees`` in their flat node lists, each keyroot id
    once, appends each new forest's fields to a list per field and converts
    the lists to arrays once.  ``paths[k]`` lists keyroot id ``k``'s
    forests, ``whole[s]`` the forest that is the subtree of id ``s`` (for
    -1, the empty sequence's key, node 0).  Per forest, ``ids`` holds its
    last node's id, ``links`` its index, parent (without the last node), the
    forest where its last node's subtree starts (0 for a whole tree), that
    subtree's forest (which the keyroot of its leftmost leaf walks) and its
    last node's label (in ``labels``), the other arrays its length, indel
    cost and the indels summed along its path; ``costs[a]`` holds
    ``relabel[a][b]`` per ``b``."""

    def __init__(self, trees, relabel):
        children, self.paths, self.whole, index = [{}], {-1: [0]}, {-1: 0}, {}
        parent, begin, depth, self.ids, indel, edge, label = [0], [0], [0], [-1], [0.0], [0.0], [0]
        for t in trees:
            lml, ids, labels, costs = t.lml, t.ids, t.labels, t.indel
            for k in t.keyroots:
                if ids[k] in self.paths:
                    continue
                lk, path, v = lml[k], [0], 0
                for n in range(lk, k + 1):
                    sid = ids[n]
                    w = children[v].get(sid)
                    if w is None:
                        w = children[v][sid] = len(children)
                        children.append({})
                        offset = lml[n] - lk
                        parent.append(v)
                        begin.append(path[offset])
                        depth.append(len(path))
                        self.ids.append(sid)
                        indel.append(costs[n])
                        edge.append(edge[v] + costs[n])
                        label.append(index.setdefault(labels[n], len(index)))
                        if not offset:
                            self.whole[sid] = w
                    path.append(w)
                    v = w
                self.paths[ids[k]] = path
        self.size, self.labels = len(parent), list(index)
        self.costs = _Lazy(lambda a, b=self.labels: np.array(list(map(relabel[a].__getitem__, b))))
        sub = list(map(self.whole.get, self.ids, repeat(0)))
        self.links = np.array([range(self.size), parent, begin, sub, label], np.intp)
        # a type that holds the sum of two lengths: numpy radix-sorts 8 and 16 bits
        self.depth = np.array(depth, np.min_scalar_type(2 * max(depth)))
        costs = np.array([indel, edge], float)
        self.indel, self.edge = costs[0], costs[1]

    @cached_property
    def column_terms(self) -> np.ndarray:
        """:func:`_fill`'s column terms, one column per forest but the empty one."""
        return self.links[_COLUMN_TERMS, 1:] * _COLUMN_SCALE


# a cell's buffer indices, each a row of _Trie.links scaled (and offset, for
# rows) plus a column's: the cell; its delete, insert and match operands; the
# delete and insert costs; the other match operand; and the match operand
# and relabel cost of two whole trees
_COLUMN_TERMS, _ROW_TERMS = [0, 0, 1, 2, 0, 0, 3, 1, 4], [0, 1, 0, 2, 0, 0, 3, 1, 4]
_COLUMN_SCALE = np.array([1, 1, 1, 1, 0, 1, 1, 1, 1])[:, None]  # a column has no delete cost
# cells whose buffer indices are built at once: of 1024 to 8192, 2048 and 4096
# filled a tree hint's big passes fastest, their index arrays staying in cache
_CHUNK = 2048


def _fill(rows: _Trie, cols: _Trie) -> np.ndarray:
    """Fill the Zhang-Shasha forest tables of one pass: returns its cells, a
    row per row forest and a column per column forest.  A cell is the
    minimum of three single IEEE additions: its parent row's cell plus a
    delete, its parent column's plus an insert, and the parents' cell plus
    a relabel (two whole trees) or else the start forests' cell plus the
    cell of the last nodes' whole subtrees, whose row (``rows.links[3]``)
    the pass fills too, as it runs every keyroot of its sources.  So a
    cell reads only cells of shorter total length: the cells run in
    wavefronts of equal total length, each a few array gathers, and a sum
    past the largest float is ``inf``, as in Python."""
    width, n_labels = cols.size, len(cols.labels)
    # one flat buffer: the insert costs, delete costs, relabel costs, cells
    costs = width + rows.size
    base = costs + len(rows.labels) * n_labels
    buf = np.empty(base + rows.size * width)
    buf[:width], buf[width:costs] = cols.indel, rows.indel
    buf[costs:base] = np.ravel([cols.costs[a] for a in rows.labels])  # concatenate([]) raises
    cells = buf[base:].reshape(rows.size, width)
    cells[:, 0], cells[0] = rows.edge, cols.edge
    scale = np.array([[width] * 4 + [1, 0, width, width, n_labels],
                      [base] * 4 + [width, 0, base, base, costs]])[..., None]
    row_terms = rows.links[_ROW_TERMS, 1:] * scale[0] + scale[1]
    order = np.argsort(rows.depth[1:, None] + cols.depth[1:], axis=None, kind="stable")
    counts = np.convolve(*(np.bincount(t.depth[1:], minlength=1) for t in (rows, cols)))  # per sum
    ends, front = np.cumsum(counts)[counts > 0].tolist(), 0
    with np.errstate(over="ignore"):
        for first in range(0, len(order), _CHUNK):
            last = min(first + _CHUNK, len(order))
            r, c = np.divmod(order[first:last], width - 1)
            terms = row_terms.take(r, 1)
            terms += cols.column_terms.take(c, 1)
            at, reads, a = terms[0], terms[1:7], 0
            both = reads[2] == base  # both start forests empty: two whole trees
            np.copyto(reads[2], terms[7], where=both)
            np.copyto(reads[5], terms[8], where=both)
            while a < last - first:  # the wavefronts of the chunk, or their parts in it
                b = min(ends[front], last) - first
                front += ends[front] <= last
                operands = buf.take(reads[:, a:b])
                value = operands[:3]
                value += operands[3:]
                buf[at[a:b]] = value.min(0)
                a = b
    return cells


def _scans(state, cost: CostModel) -> bool:
    """Whether rows of ``state`` scan a pack (unit-cost sequences), not fill a trie."""
    return cost.is_unit and not isinstance(state, TreeState)


class DistanceMemo:
    """What the distance calls of one batch share; it alone picks a row's
    route (:func:`_scans`).  A unit-cost sequence row scans the pack of its
    targets.  A tree pass runs every keyroot of its sources, as one
    :class:`_Trie` of rows, over the trie of columns of its targets; the
    memo keeps its cells and tries in ``_runs[k]`` for each source keyroot
    id ``k`` it ran.  Equal forest pairs get equal bits in any pass.  A
    source whose whole tree a kept pass ran (its root id is a keyroot id of
    that pass) over a trie holding every target of a new pass reads that
    pass; a new pass runs the others whole.  Each tree is annotated once.

    A memo started from a ``base`` copies its intern table, annotated trees,
    tries, packs and passes, so ids agree and it builds nothing the base
    has; what it adds stays its own.  A memo serves one cost model, its
    first call's (or its base's), and holds every tree it annotated and
    every target list it packed, so no ``id`` is reused while it lives.
    """

    def __init__(self, base: DistanceMemo = None):
        self.cost = base.cost if base else None
        self._intern = dict(base._intern) if base else {}  # (label, child ids) -> subtree id
        self._trees = dict(base._trees) if base else {}  # id(tree) -> (tree, its _Annotated)
        self._packs = dict(base._packs) if base else {}  # id(targets) -> (targets, their pack)
        self._tries = dict(base._tries) if base else {}  # target root ids -> their trie
        self._runs = dict(base._runs) if base else {}  # keyroot id -> [(cells, rows, columns)]

    def annotate(self, tree, cost: CostModel) -> _Annotated:
        if self.cost is None:
            self.cost = cost
        elif cost is not self.cost and cost != self.cost:
            raise ValueError("a DistanceMemo serves the one cost model it was first used with")
        entry = self._trees.get(id(tree))
        if entry is None:
            entry = self._trees[id(tree)] = (tree, _Annotated(tree, cost, self._intern))
        return entry[1]

    def columns(self, targets, cost: CostModel):
        """The columns of rows over a non-empty list of states: the pack of
        unit-cost sequences (see :func:`_pack`), kept with the list, or else
        the trie of their keyroots, kept by their root ids."""
        if not _scans(targets[0], cost):
            return self._trie([self.annotate(y, cost) for y in targets], cost)
        if id(targets) not in self._packs:
            self._packs[id(targets)] = targets, _pack(targets)
        return self._packs[id(targets)][1]

    def _trie(self, trees, cost: CostModel) -> _Trie:
        key = tuple([t.key for t in trees])
        if key not in self._tries:  # an equal subtree has the same forests
            self._tries[key] = _Trie(trees, cost.rows)
        return self._tries[key]

    def passes(self, sources, targets, cost: CostModel) -> dict:
        """The kept pass ``(cells, rows, columns)`` that ran each of the
        annotated ``sources`` whole over all annotated ``targets``, by its
        root id: those no kept pass ran fill, as one trie of rows, the
        targets' trie in one pass (none: no trie is looked up)."""
        ran = {}
        for t in sources:
            for run in self._runs.get(t.key, ()):
                if all(y.key in run[2].paths for y in targets):
                    ran[t.key] = run
                    break
        rest = [t for t in sources if t.key not in ran]
        if rest:
            cols = self._trie(targets, cost)
            rows = _Trie(rest, cost.rows)
            run = (_fill(rows, cols), rows, cols)
            for kid in rows.paths:
                ran.setdefault(kid, run)
                self._runs[kid] = [*self._runs.get(kid, ()), run]
        return ran

    def rows(self, xs, targets, cost: CostModel) -> list:
        """The distances from each of ``xs`` to each of ``targets``: scans of
        the targets' pack, or cells of :meth:`passes` over their annotations."""
        if not (xs and targets):
            return [[] for _ in xs]
        if _scans(xs[0], cost):
            return list(map(_scan, xs, repeat(self.columns(targets, cost))))
        sources = [self.annotate(x, cost) for x in xs]
        trees = [self.annotate(y, cost) for y in targets]
        ran, out = self.passes(sources, trees, cost), []
        for t in sources:
            cells, rows, cols = ran[t.key]
            out.append(cells[rows.whole[t.key], [cols.whole[y.key] for y in trees]].tolist())
        return out


def _zss_mapping(t1: _Annotated, t2: _Annotated, run: tuple):
    """Backtrace one optimal node mapping through kept cells: each keyroot
    pair's forest table is one gather from ``run``, the pass that ran t1
    whole over t2 (:meth:`DistanceMemo.passes`).  Ties prefer insert, then
    match/relabel, then delete, as in the sequence backtrace."""
    relabel, ci = t1.cost.rows, t2.indel
    kept, rows, cols = run

    def subtree(ni, nj):
        return kept.item(rows.whole[t1.ids[ni]], cols.whole[t2.ids[nj]])

    mapping = []
    stack = [(t1.n - 1, t2.n - 1)]
    while stack:
        ri, rj = stack.pop()
        ki, kj, li, lj = t1.ids[t1.keyroot_of[ri]], t2.ids[t2.keyroot_of[rj]], t1.lml[ri], t2.lml[rj]
        rpath, cpath = rows.paths[ki][: ri - li + 2], cols.paths[kj][: rj - lj + 2]
        fd = kept[np.array(rpath)[:, None], np.array(cpath)].tolist()
        x, y = ri - li + 1, rj - lj + 1
        while x > 0 or y > 0:
            ni = li + x - 1
            nj = lj + y - 1
            here = fd[x][y]
            if y > 0 and here == fd[x][y - 1] + ci[nj]:
                y -= 1  # nj inserted
                continue
            if x > 0 and y > 0:
                a = t1.lml[ni] - li
                b = t2.lml[nj] - lj
                if not (a or b):
                    if here == fd[x - 1][y - 1] + relabel[t2.labels[nj]][t1.labels[ni]]:
                        mapping.append((ni, nj))
                        x, y = x - 1, y - 1
                        continue
                elif here == fd[a][b] + subtree(ni, nj):
                    stack.append((ni, nj))
                    x, y = a, b
                    continue
            x -= 1  # ni deleted
    return mapping


def _weights(t: _Annotated, mapped) -> tuple:
    """Per node, its weight and its left siblings' weight.  A node weighs 1
    if mapped, else its children's weight: the entries its subtree leaves
    in its parent's child list once its unmapped nodes are deleted."""
    weight, left = [], [0] * t.n
    for i in range(t.n):  # postorder: children first
        run = 0
        for k in t.children[i]:
            left[k] = run
            run += weight[k]
        weight.append(1 if i in mapped else run)
    return weight, left


def _script_from_mapping(src: _Annotated, tgt: _Annotated, mapping):
    """Turn a Zhang-Shasha node mapping into an applicable edit script,
    each path its node's place at that step (weights as in :func:`_weights`;
    pre-order is the order of the paths):

    - deletes of unmapped non-root source nodes in postorder; at each edge
      a -> c from the root, the component is 1 + c's left siblings' weight;
    - relabels of mapped nodes in source pre-order, by the same walk but
      where an unmapped c gives no component and carries its offset on;
    - inserts of unmapped target nodes in target pre-order, at (1,) if the
      source root is unmapped, else (), then the node's target path, each
      adopting its target children's weight; a target root inserted above
      the mapped source root goes at () and adopts it;
    - the delete of an unmapped source root, last, at ().  Deferring it
      until the target root holds its children keeps every step a tree.
    """
    map_st = dict(mapping)
    map_ts = {j: i for i, j in mapping}
    root_unmapped = src.n - 1 not in map_st
    steps = []  # (edit, cost)

    # each source node's path before the deletes, and after them the path of
    # a mapped node or the offset an unmapped one passes to its children
    _, left = _weights(src, map_st)
    path, kept, carry = [()] * src.n, [()] * src.n, [0] * src.n
    for a in reversed(range(src.n)):  # parents before their children
        for c in src.children[a]:
            path[c] = path[a] + (1 + left[c],)
            offset = carry[a] + left[c]
            if c in map_st:
                kept[c] = kept[a] + (1 + offset,)
            else:
                kept[c], carry[c] = kept[a], offset
    for i in range(src.n - 1):  # the root is last
        if i not in map_st:
            steps.append((TreeEdit("delete_node", path[i]), src.indel[i]))
    for i in sorted([i for i, j in mapping if src.labels[i] != tgt.labels[j]], key=kept.__getitem__):
        old, new = src.labels[i], tgt.labels[map_st[i]]
        steps.append((TreeEdit("relabel_node", kept[i], new), tgt.cost.cost_relabel(old, new)))

    # every target node before j in pre-order is in place when j is inserted
    weight, _ = _weights(tgt, map_ts)
    at = [(1,) if root_unmapped else ()] * tgt.n
    for q in reversed(range(tgt.n)):
        for rank, c in enumerate(tgt.children[q], start=1):
            at[c] = at[q] + (rank,)
    for j in sorted([j for j in range(tgt.n) if j not in map_ts], key=at.__getitem__):
        span = (at[j][-1], weight[j]) if at[j] else (1, 1)
        steps.append((TreeEdit("insert_node", at[j], tgt.labels[j], span), tgt.indel[j]))
    if root_unmapped:
        steps.append((TreeEdit("delete_node", ()), src.indel[-1]))
    total = 0.0
    for _, cost_value in steps:
        total += cost_value
    return EditScript(tuple(edit for edit, _ in steps), total)


def tree_distance(
    x: TreeState, y: TreeState, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None
):
    """Zhang-Shasha tree edit distance with a realizing edit script.  The
    distance is a cell of a pass through ``memo`` as in :func:`distance`;
    the mapping backtrace then reads the cells that the memo's passes kept."""
    memo = DistanceMemo() if memo is None else memo
    t1, t2 = memo.annotate(x, cost), memo.annotate(y, cost)
    cells, rows, cols = run = memo.passes((t1,), (t2,), cost)[t1.key]
    dist = cells.item(rows.whole[t1.key], cols.whole[t2.key])
    script = _script_from_mapping(t1, t2, _zss_mapping(t1, t2, run))
    if not math.isclose(script.total_cost, dist, rel_tol=1e-12, abs_tol=1e-12):
        raise AssertionError(
            f"script cost {script.total_cost} does not realize distance {dist}"
        )
    return dist, EditScript(script.edits, dist)


# ---------------------------------------------------------------------------
# dispatch helpers


def distance_and_script(x, y, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None):
    """The edit distance of two states and a script realizing it; ``memo``
    as in :func:`distance_rows`."""
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
    """The edit distance of two states, without a script: the one cell of
    :func:`distance_rows` (``memo`` as there)."""
    return distance_rows((x,), (y,), cost, memo)[0][0]


tree_distance_only = distance  # the distance of two trees, without a script


def distance_rows(xs, targets, cost: CostModel = UNIT_COSTS, memo: DistanceMemo = None) -> list:
    """The edit distances from each of ``xs`` to each of ``targets``, one
    row per source, by the route that ``memo`` picks, which keeps what the
    rows build for its batch (see :meth:`DistanceMemo.rows`; None: fresh)."""
    return (DistanceMemo() if memo is None else memo).rows(xs, targets, cost)


# sources per pass of the pairwise matrix: a pass's cells pair the forests of
# its sources with its targets', so blocks bound its memory.  At 256 tree
# states on 2 shared cores, blocks of 16, 32 and 64 all took 195-200 ms, and
# blocks grown with the targets' trie as long, at a 41 % higher memory peak
_MATRIX_BLOCK = 16


def pairwise_distances(states, cost: CostModel = UNIT_COSTS) -> np.ndarray:
    """Symmetric matrix of raw edit distances over a state list.

    Equal states share one row and column.  The unique states run in
    blocks of 16, each block one :func:`distance_rows` pass over the states
    after its first, with a memo of its own started from one that annotates
    every state the passes fill (trees and weighted-cost sequences).  The
    blocks stop before the last state, which has no state after it.  The
    matrix mirrors the triangle above the diagonal, which is exact because
    distances are bitwise symmetric.
    """
    index, memo = {}, DistanceMemo()
    ids = [index.setdefault(s if isinstance(s, TreeState) else tuple(s), len(index)) for s in states]
    unique = list(index)
    for s in unique:
        if not _scans(s, cost):
            memo.annotate(s, cost)
    out = np.zeros((len(unique), len(unique)))
    for i in range(0, len(unique) - 1, _MATRIX_BLOCK):
        rows = distance_rows(unique[i : i + _MATRIX_BLOCK], unique[i + 1 :], cost, DistanceMemo(memo))
        out[i : i + _MATRIX_BLOCK, i + 1 :] = rows
    out = np.triu(out, 1)
    return (out + out.T)[np.ix_(ids, ids)]

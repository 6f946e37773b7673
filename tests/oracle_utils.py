"""Independent oracles and generators shared across the test modules.

Everything here recomputes expected values by a different route than the
package: breadth-first search over the legal move graph for string
distances, exhaustive enumeration of valid tree mappings for tree
distances, numpy's eigensolver and exact characteristic polynomials for
the embedding, direct coordinate geometry for planted configurations,
the inverse of an edit for round trips, replaying a script edit by edit,
pair-by-pair accumulation for the state coefficients of pair weights,
loop forms of the Nystrom projection, the prediction step and the
pre-image score, a cell-by-cell Zhang-Shasha fill over keyroot tries in
Python on trees annotated by a recursive walk of their own, with a
backtrace that fills each table it visits again (a bitwise oracle of the
wavefront kernel), edit scripts built from a node mapping
by editing a mutable working tree and searching it for every path,
sparsification that refits every candidate at every greedy step, a
leave-one-out evaluation that fits each fold alone and predicts its
held-out states one at a time, and a hyper-parameter search that scores
each sample with a fresh run of it.  It also holds the small builders
and serializers that only tests use: tree construction and size, and a
dataset's JSON object.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np

from edithints.editdist import (
    INF,
    CostModel,
    EditError,
    EditScript,
    UNIT_COSTS,
    SeqEdit,
    TreeEdit,
    apply_edit,
    edit_to_dict,
)
from edithints.evaluate import EvalReport
from edithints.policies import FitError, Geometry, GprModel, KernelParams, prepared_traces
from edithints.space import squared
from edithints.states import EMPTY_CANON, Label, TreeState, serialize_state
from edithints.traces import TracePairs


# ---------------------------------------------------------------------------
# string oracle: BFS over the legal move graph (unit costs)


def bfs_string_distances(source: str, targets, alphabet) -> dict:
    """Unit-cost edit distances from ``source`` to every target via BFS
    over the legal move graph.

    Any optimal path stays within length len(source) + max target length
    (longer detours already cost more than delete-all plus insert-all) and
    within depth max(len(source), max target length).
    """
    targets = set(targets)
    max_target = max((len(t) for t in targets), default=0)
    cap_len = len(source) + max_target
    cap_depth = max(len(source), max_target)
    out = {}
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier and len(out) < len(targets):
        state, depth = frontier.popleft()
        if state in targets and state not in out:
            out[state] = depth
        if depth >= cap_depth:
            continue
        for nxt in _string_neighbors(state, alphabet):
            if len(nxt) <= cap_len and nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return out


def _string_neighbors(s: str, alphabet):
    for i in range(len(s)):
        yield s[:i] + s[i + 1 :]
    for i in range(len(s)):
        for a in alphabet:
            if a != s[i]:
                yield s[:i] + a + s[i + 1 :]
    for i in range(len(s) + 1):
        for a in alphabet:
            yield s[:i] + a + s[i:]


def all_strings(alphabet, max_len):
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(p) for p in itertools.product(alphabet, repeat=n))
    return out


# ---------------------------------------------------------------------------
# tree oracle: exhaustive enumeration of valid mappings


def all_trees(max_nodes: int, labels) -> list:
    """Every ordered rooted labeled tree with up to ``max_nodes`` nodes."""

    def shapes(n):
        if n == 1:
            return [()]
        out = []

        def parts(rem):
            if rem == 0:
                yield ()
                return
            for first in range(1, rem + 1):
                for rest in parts(rem - first):
                    yield (first,) + rest

        for sizes in parts(n - 1):
            for combo in itertools.product(*(shapes(s) for s in sizes)):
                out.append(combo)
        return out

    def labelings(shape):
        child_lists = [list(labelings(c)) for c in shape]
        for root_label in labels:
            for kids in itertools.product(*child_lists):
                yield tree(root_label, *kids)

    out = []
    for n in range(1, max_nodes + 1):
        for shape in shapes(n):
            out.extend(labelings(shape))
    return out


def _annotate(t: TreeState):
    labels = []
    lml = []

    def walk(node):
        kids = [walk(c) for c in node.children]
        idx = len(labels)
        labels.append(node.label)
        lml.append(lml[kids[0]] if kids else idx)
        return idx

    walk(t)
    n = len(labels)
    is_anc = [[lml[a] <= b < a for b in range(n)] for a in range(n)]
    return labels, is_anc


def mapping_tree_distance(x: TreeState, y: TreeState, cost: CostModel) -> float:
    """Minimum cost over all valid tree mappings: partial matchings of the
    postorder node sets preserving order and ancestry.  Unmapped source
    nodes are deleted, unmapped target nodes inserted, mapped pairs
    relabeled."""
    lx, ancx = _annotate(x)
    ly, ancy = _annotate(y)
    nx, ny = len(lx), len(ly)
    insert_all = sum(cost.cost_insert(l) for l in ly)
    best = [sum(cost.cost_delete(l) for l in lx) + insert_all]

    def rec(i, used, pairs, base):
        if base >= best[0]:
            return
        if i == nx:
            total = base + sum(cost.cost_insert(ly[j]) for j in range(ny) if j not in used)
            if total < best[0]:
                best[0] = total
            return
        rec(i + 1, used, pairs, base + cost.cost_delete(lx[i]))
        for j in range(ny):
            if j in used:
                continue
            ok = True
            for i2, j2 in pairs:
                if (i2 < i) != (j2 < j) or ancx[i][i2] != ancy[j][j2] or ancx[i2][i] != ancy[j2][j]:
                    ok = False
                    break
            if ok:
                c = cost.cost_relabel(lx[i], ly[j])
                if c < INF:
                    rec(i + 1, used | {j}, pairs + [(i, j)], base + c)

    rec(0, frozenset(), [], 0.0)
    return best[0]


def zhang_shasha_distance(x: TreeState, y: TreeState, cost: CostModel) -> float:
    """Zhang and Shasha's (1989) algorithm as published: each keyroot pair
    fills its own forest table, row by row, and each cell is the minimum of
    its delete, insert and match sums."""

    def postorder(t):
        labels, lml = [], []

        def walk(node):
            kids = [walk(c) for c in node.children]
            labels.append(node.label)
            lml.append(lml[kids[0]] if kids else len(labels) - 1)
            return len(labels) - 1

        walk(t)
        keyroots = sorted({max(i for i, leaf in enumerate(lml) if leaf == k) for k in lml})
        return labels, lml, keyroots

    l1, m1, k1 = postorder(x)
    l2, m2, k2 = postorder(y)
    td = [[0.0] * len(l2) for _ in l1]
    for i in k1:
        for j in k2:
            li, lj = m1[i], m2[j]
            rows, cols = i - li + 2, j - lj + 2
            fd = [[0.0] * cols for _ in range(rows)]
            for a in range(1, rows):
                fd[a][0] = fd[a - 1][0] + cost.cost_delete(l1[li + a - 1])
            for b in range(1, cols):
                fd[0][b] = fd[0][b - 1] + cost.cost_insert(l2[lj + b - 1])
            for a in range(1, rows):
                for b in range(1, cols):
                    ni, nj = li + a - 1, lj + b - 1
                    delete = fd[a - 1][b] + cost.cost_delete(l1[ni])
                    insert = fd[a][b - 1] + cost.cost_insert(l2[nj])
                    if m1[ni] == li and m2[nj] == lj:
                        match = fd[a - 1][b - 1] + cost.cost_relabel(l1[ni], l2[nj])
                        fd[a][b] = td[ni][nj] = min(delete, insert, match)
                    else:
                        match = fd[m1[ni] - li][m2[nj] - lj] + td[ni][nj]
                        fd[a][b] = min(delete, insert, match)
    return td[-1][-1]


# ---------------------------------------------------------------------------
# a cell-by-cell Zhang-Shasha fill over tries, column by column in Python: a
# bitwise oracle of the wavefront kernel's distances and scripts


class OracleAnnotated:
    """Postorder node labels, leftmost-leaf indices, children, keyroots and
    indel costs of a tree, made by a recursive walk: the annotation of the
    oracle, which shares no code with the package's.

    ``ids`` numbers each subtree by its structure: ``(label, child ids)``
    is hash-consed through ``intern``, so trees annotated with one intern
    table give equal subtrees equal ids.
    """

    def __init__(self, root: TreeState, cost: CostModel, intern: dict):
        self.cost = cost
        self.labels = labels = []
        self.lml = lml = []  # leftmost leaf descendant, postorder index
        self.children = children = []  # postorder indices of children
        self.ids = ids = []  # structural id of each node's subtree

        def walk(node: TreeState) -> int:
            kids = [walk(c) for c in node.children]
            idx = len(labels)
            labels.append(node.label)
            lml.append(lml[kids[0]] if kids else idx)
            children.append(kids)
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

    def forest(self, k: int) -> list:
        """Keyroot ``k``'s subtree in postorder, per node its subtree id,
        indel cost, the offset where its subtree starts and, on the leftmost
        path (offset 0), its label."""
        lk, ids, lml, labels = self.lml[k], self.ids, self.lml, self.labels
        return [
            (ids[n], self.indel[n], lml[n] - lk, labels[n] if lml[n] == lk else None)
            for n in range(lk, k + 1)
        ]


def _trie_order(forests) -> tuple:
    """The trie of node sequences (see ``editdist._Trie``) as a list of
    ``(node, parent, begin, last node)`` in order, and its size."""
    children, order = [{}], []
    for nodes in forests:
        path = [0]
        for node in nodes:
            v = children[path[-1]].get(node[0])
            if v is None:
                v = children[path[-1]][node[0]] = len(children)
                children.append({})
                order.append((v, path[-1], path[node[2]], node))
            path.append(v)
    return order, len(children)


def python_fill(rows, order, size, table, relabel) -> list:
    """Fill Zhang-Shasha forest tables column by column, cell by cell;
    returns the columns.  ``rows`` and ``order`` list per row (source
    forest) and per column (target forest) its index, its parent's, the
    index where its last node's subtree starts and that node; a cell reads
    its parent row's and parent column's cells, the start row's cell in
    the start column, and ``table[target id][source id]``, the subtree-pair
    distances that cells where both forests are whole trees write."""
    first = [0.0]
    for _, parent, _, (_, c_del, _, _) in rows:
        first.append(first[parent] + c_del)
    rows = [(parent, begin, sid, c_del, lab) for _, parent, begin, (sid, c_del, _, lab) in rows]
    cols = [first] * size
    for v, parent, begin, (tid, c_ins, b, label) in order:
        prev, start = cols[parent], cols[begin]
        known = table.setdefault(tid, {})
        cols[v] = col = [prev[0] + c_ins]
        for left, (p, a, sid, c_del, lab) in zip(prev[1:], rows):
            up = col[p] + c_del
            left += c_ins
            if up < left:
                left = up
            if b or lab is None:
                up = start[a] + known[sid]
                if up > left:
                    up = left
            else:  # both forests are whole trees
                up = prev[p] + relabel[label][lab]
                if up > left:
                    up = left
                known[sid] = up
            col.append(up)
    return cols


def _python_table(xs, targets, cost) -> tuple:
    """Every source keyroot over every target keyroot in one cell-by-cell
    pass; returns the annotated trees and the subtree-pair table."""
    intern = {}
    sources = [OracleAnnotated(x, cost, intern) for x in xs]
    trees = [OracleAnnotated(y, cost, intern) for y in targets]

    def forests(ts):
        return {t.ids[k]: t.forest(k) for t in ts for k in t.keyroots}.values()

    table = {}
    order, size = _trie_order(forests(trees))
    python_fill(_trie_order(forests(sources))[0], order, size, table, cost.rows)
    return sources, trees, table


def python_distance_rows(xs, targets, cost: CostModel) -> list:
    """Tree distance rows by :func:`python_fill`."""
    sources, trees, table = _python_table(xs, targets, cost)
    return [[float(table[y.ids[-1]][t.ids[-1]]) for y in trees] for t in sources]


def python_tree_distance(x: TreeState, y: TreeState, cost: CostModel):
    """A distance and script by :func:`python_fill`, whose mapping
    backtrace fills again one chain of rows against one chain of columns
    for each pair of subtrees it visits."""
    (t1,), (t2,), table = _python_table((x,), (y,), cost)
    relabel, ci = cost.rows, t2.indel
    mapping, stack = [], [(t1.n - 1, t2.n - 1)]
    while stack:
        ri, rj = stack.pop()
        ki, kj = t1.keyroot_of[ri], t2.keyroot_of[rj]
        li, lj = t1.lml[ki], t2.lml[kj]
        x_, y_ = ri - li + 1, rj - lj + 1
        rows, chain = [
            [(v, v - 1, node[2], node) for v, node in enumerate(t.forest(k)[:n], 1)]
            for t, k, n in ((t1, ki, x_), (t2, kj, y_))
        ]
        fd = python_fill(rows, chain, y_ + 1, table, relabel)
        while x_ > 0 or y_ > 0:
            ni, nj = li + x_ - 1, lj + y_ - 1
            here = fd[y_][x_]
            if y_ > 0 and here == fd[y_ - 1][x_] + ci[nj]:
                y_ -= 1
                continue
            if x_ > 0 and y_ > 0:
                a, b = t1.lml[ni] - li, t2.lml[nj] - lj
                if not (a or b):
                    if here == fd[y_ - 1][x_ - 1] + relabel[t2.labels[nj]][t1.labels[ni]]:
                        mapping.append((ni, nj))
                        x_, y_ = x_ - 1, y_ - 1
                        continue
                elif here == fd[b][a] + table[t2.ids[nj]][t1.ids[ni]]:
                    stack.append((ni, nj))
                    x_, y_ = a, b
                    continue
            x_ -= 1
    dist = float(table[t2.ids[-1]][t1.ids[-1]])
    return dist, EditScript(script_from_mapping_oracle(t1, t2, mapping).edits, dist)


# ---------------------------------------------------------------------------
# edit scripts from a node mapping by simulating the working tree: each edit
# is applied to mutable nodes and every path is found by searching them


class _MutNode:
    """Mutable tree node used while materializing an edit script."""

    __slots__ = ("label", "children", "key")

    def __init__(self, label, children, key):
        self.label = label
        self.children = children
        self.key = key


def _build_mut(t) -> _MutNode:
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


def script_from_mapping_oracle(src, tgt, mapping):
    """Turn a Zhang-Shasha node mapping into an applicable edit script by
    applying each edit to a working tree and searching it for each path.
    ``src`` and ``tgt`` are annotated trees: :class:`OracleAnnotated` or
    the package's, which holds the same lists.

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
    up = {k: q for q, kids in enumerate(tgt.children) for k in kids}  # target parents

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
        while up[node] != q:
            node = up[node]
        return node

    # target pre-order: subtree j spans postorder indices lml[j]..j, so this
    # key puts each node after the subtrees left of it and before its own
    for j in sorted(range(tgt.n), key=lambda j: (tgt.lml[j], -j)):
        if j in map_ts:
            continue
        q = up.get(j, -1)  # -1 when j is the target root
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


# ---------------------------------------------------------------------------
# edit inversion and replay


def invert_edit(edit, state):
    """Return the inverse edit of ``edit`` on ``state``:
    ``apply_edit(apply_edit(state, edit), invert_edit(edit, state)) == state``.
    """
    if isinstance(edit, SeqEdit):
        if edit.kind == "insert":
            return SeqEdit("delete", edit.position)
        if edit.position > len(state):
            raise EditError(f"position {edit.position} > length {len(state)}")
        old = state[edit.position - 1]
        if edit.kind == "delete":
            return SeqEdit("insert", edit.position, old)
        return SeqEdit("relabel", edit.position, old)
    if isinstance(edit, TreeEdit):
        if edit.kind == "insert_node":
            return TreeEdit("delete_node", edit.path)
        node = state.node_at(edit.path)
        if edit.kind == "relabel_node":
            return TreeEdit("relabel_node", edit.path, node.label)
        if not edit.path:
            return TreeEdit("insert_node", (), node.label, (1, 1))
        return TreeEdit(
            "insert_node", edit.path, node.label, (edit.path[-1], len(node.children))
        )
    raise EditError(f"unknown edit type {type(edit).__name__}")


def apply_script(script, state):
    """The state that applying every edit of ``script`` in order to
    ``state`` leaves."""
    for edit in script.edits:
        state = apply_edit(state, edit)
    return state


# ---------------------------------------------------------------------------
# state builders and generators


def tree(label: Label, *children: TreeState) -> TreeState:
    return TreeState(label, tuple(children))


def tree_size(t: TreeState) -> int:
    return 1 + sum(tree_size(c) for c in t.children)


def random_sequence(rng: random.Random, alphabet="abc", max_len=6):
    return tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len + 1)))


def random_tree(rng: random.Random, labels="fgh", max_depth=3, max_kids=3) -> TreeState:
    def build(depth):
        label = rng.choice(labels)
        n = 0 if depth >= max_depth else rng.randrange(0, max_kids)
        return tree(label, *[build(depth + 1) for _ in range(n)])

    return build(0)


def random_state(rng: random.Random, kind: str):
    return random_tree(rng) if kind == "tree" else random_sequence(rng)


# ---------------------------------------------------------------------------
# exact characteristic polynomial (Faddeev-LeVerrier over rationals)


def char_poly_exact(matrix) -> list:
    """Coefficients of det(tI - M) for a matrix with rational entries,
    highest degree first, computed exactly."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]

    def mat_mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def mat_add_diag(a, c):
        return [
            [a[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)
        ]

    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = mat_add_diag(mk, coeffs[-1])
        mk = mat_mul(m, mk)
        trace = sum(mk[i][i] for i in range(n))
        coeffs.append(-trace / k)
    return coeffs


def poly_roots(coeffs) -> np.ndarray:
    return np.sort(np.roots([float(c) for c in coeffs]).real)[::-1]


# ---------------------------------------------------------------------------
# planted Euclidean configurations


def planted_sqdist(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


# ---------------------------------------------------------------------------
# state coefficients of pair weights


def combination_coefficients(gamma: np.ndarray, pairs) -> np.ndarray:
    """Coefficients over training states of sum_i gamma_i (phi(y_i) - phi(x_i)),
    accumulated pair by pair (oracle for ``alpha_from_gamma``).  A self-pair
    contributes the zero vector, whatever its weight."""
    out = np.zeros(len(pairs))
    for i, yi in enumerate(pairs.successor):
        if yi != i:
            out[yi] += gamma[i]
            out[i] -= gamma[i]
    return out


# ---------------------------------------------------------------------------
# loop forms of the query path: the package computes each in one pass


def combo_sqdist(space, a, b, query=None) -> float:
    """Squared distance between two weighted state combinations in a
    corrected space.

    Coefficient vectors run over the training states, plus one trailing
    entry for the query when ``query`` is given.  The value is the
    quadratic form (a - b)^T G (a - b) over the (extended) corrected Gram
    matrix; tiny negative values from rounding are possible and bounded by
    -1e-8 times the Gram scale.
    """
    gram = space.gram_corrected if query is None else space.extended_gram(query)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (gram.shape[0],) or b.shape != (gram.shape[0],):
        raise ValueError(f"coefficient vectors must have length {gram.shape[0]}")
    v = a - b
    return float(v @ gram @ v)


def extend_coords_loop(space, d2_to_training) -> np.ndarray:
    """Nystrom coordinates of a query, one eigenvalue at a time (oracle for
    ``CorrectedSpace.extend``)."""
    d2q = np.asarray(d2_to_training, dtype=float)
    coords = np.zeros(space.size)
    if space.size == 0:
        return coords
    g_tilde = -0.5 * (d2q - space.col_means - float(d2q.mean()) + space.grand_mean)
    eps = 1e-10 * float(np.max(space.corrected_eigenvalues, initial=0.0))
    for k in range(space.size):
        lam = space.eigenvalues[k]
        lam_plus = space.corrected_eigenvalues[k]
        if lam_plus > eps and abs(lam) > eps:
            coords[k] = (space.eigenvectors[:, k] @ g_tilde) * np.sqrt(lam_plus) / lam
    return coords


def preimage_objective(sq_to_x: float, sq_to_support, weights) -> float:
    """The pre-image score of one candidate on its own: squared distance to
    the query plus the coefficient-weighted squared distances to the
    support states, in one ``np.dot``."""
    return float(sq_to_x + np.dot(weights, sq_to_support))


def predict_move_loop(model, gamma) -> np.ndarray:
    """sum_i gamma_i (phi(y_i) - phi(x_i)) in corrected coordinates, pair by
    pair (oracle for the move in ``evaluate._predict_coords``)."""
    coords = model.space.coordinates
    move = np.zeros(coords.shape[1])
    for i, yi in enumerate(model.pairs.successor):
        if gamma[i] != 0.0 and yi != i:
            move += gamma[i] * (coords[yi] - coords[i])
    return move


# ---------------------------------------------------------------------------
# sparsification with a full refit of every candidate at every greedy step


def _affine_ls(gram: np.ndarray, target: np.ndarray, cols) -> tuple:
    k = len(cols)
    sub = gram[np.ix_(cols, cols)]
    rhs = gram[cols, :] @ target
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = sub
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    vec = np.zeros(k + 1)
    vec[:k] = rhs
    vec[k] = 1.0
    sol = np.linalg.lstsq(kkt, vec, rcond=None)[0]
    coef = sol[:k]
    err = float(coef @ sub @ coef - 2.0 * coef @ rhs + target @ gram @ target)
    return coef, err


def greedy_sparsify_oracle(model, alpha, query, allowed, m_max):
    """``policies.sparsify`` with the greedy step refitting every remaining
    candidate by least squares (oracle for the screened step)."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    alpha = np.asarray(alpha, dtype=float)
    m = len(model.pairs)
    allowed = sorted(set(int(i) for i in allowed))
    if not allowed:
        raise ValueError("sparsify needs a non-empty allowed support")

    gram = model.space.extended_gram(query)
    target = np.append(alpha, 1.0)
    scale = max(1.0, float(np.max(np.abs(np.diag(gram)))))

    # heuristic 1: greedy forward selection with affine refit
    active = []
    best_err = math.inf
    best_coef = None
    remaining = list(allowed)
    for _ in range(min(m_max, len(allowed))):
        step_best = None
        for j in remaining:
            coef, err = _affine_ls(gram, target, active + [j])
            if step_best is None or err < step_best[1] - 1e-15:
                step_best = (j, err, coef)
        j, err, coef = step_best
        if err >= best_err - 1e-12 * scale:
            break
        active.append(j)
        remaining.remove(j)
        best_err, best_coef = err, coef
    greedy = np.zeros(m)
    greedy[active] = best_coef

    # heuristic 2: largest coefficients of alpha inside the support
    ranked = sorted(
        (i for i in allowed if abs(alpha[i]) > 1e-12),
        key=lambda i: (-abs(alpha[i]), i),
    )[:m_max]
    top = None
    top_err = math.inf
    if ranked:
        total = float(alpha[ranked].sum())
        if abs(total) > 1e-12:
            top = np.zeros(m)
            top[ranked] = alpha[ranked] / total
            v = np.append(top, 0.0) - target
            top_err = float(v @ gram @ v)

    if top is not None and top_err < best_err:
        return top
    return greedy


# ---------------------------------------------------------------------------
# hyper-parameter search, one public leave-one-out run per sample


# ---------------------------------------------------------------------------
# leave-one-out evaluation, one fold and one held-out state at a time

_WEIGHTS = {"gaussian_process": "gpr", "nwr": "nwr", "nn": "nn"}


def _predict_one(model, scheme, raw, coords, sqdist):
    if scheme == "do_nothing":
        return coords
    points = model.space.coordinates
    if scheme == "successor_of_closest":
        return points[model.closest_successor_raw_index(raw)]
    if scheme == "closest_correct":
        return points[model.closest_correct_raw_index(raw)]
    gamma = model.weights(raw, _WEIGHTS[scheme], sqdist)
    return coords + gamma @ (points[model.pairs.successor] - points)


def loo_rmse_oracle(dataset, schemes, params=KernelParams(), cost=UNIT_COSTS, mode="clip") -> dict:
    """The reports ``evaluate.loo_rmse_multi`` must give: every fold fitted
    alone on a fresh geometry of its own, every held-out state embedded and
    predicted alone, one 1-D query at a time."""
    flat, matrix = prepared_traces(dataset, cost)
    ids = flat.trace_ids
    if len(ids) < 2:
        raise FitError("leave-one-out needs at least two successful traces")
    spans = [range(start, stop) for start, stop in flat.trace_spans]
    per_trace = {scheme: [] for scheme in schemes}
    skipped = []
    for held, held_ids in enumerate(spans):
        rest = spans[:held] + spans[held + 1 :]
        train_ids = [g for span in rest for g in span]
        pairs = TracePairs.from_lengths(
            [flat.states[g] for g in train_ids], ids[:held] + ids[held + 1 :], map(len, rest)
        )
        geometry = Geometry(pairs, matrix[np.ix_(train_ids, train_ids)], mode)
        rows = [matrix[g][train_ids] for g in held_ids]
        try:
            model = GprModel(dataset.kind, geometry, cost, EMPTY_CANON, params)
            squared(np.array(rows))
            queries = [(model.embed_query(r).coords, model.kernel_query_sqdist(r)) for r in rows]
        except (FitError, ValueError) as exc:
            skipped.append((ids[held], str(exc)))
            continue
        coords = [c for c, _ in queries]
        nexts = flat.successor[held_ids] - held_ids.start
        n = len(held_ids)
        for scheme in schemes:
            errs_next, errs_final = [], []
            for t in range(n):
                pred = _predict_one(model, scheme, rows[t], coords[t], queries[t][1])
                errs_next.append(float(np.sum((pred - coords[nexts[t]]) ** 2)))
                errs_final.append(float(np.sum((pred - coords[-1]) ** 2)))
            row = (ids[held], math.sqrt(sum(errs_next) / n), math.sqrt(sum(errs_final) / n), n)
            per_trace[scheme].append(row)
    reports = {}
    for scheme in schemes:
        rows = per_trace[scheme]
        if not rows:
            held, reason = skipped[0]
            raise FitError(f"every fold was unfittable; the first, trace {held!r}: {reason}")
        nexts = np.array([r[1] for r in rows])
        finals = np.array([r[2] for r in rows])
        reports[scheme] = EvalReport(
            kind="rmse",
            per_trace=tuple(rows),
            mean_next=float(nexts.mean()),
            std_next=float(nexts.std()),
            mean_final=float(finals.mean()),
            std_final=float(finals.std()),
            folds_skipped=tuple(skipped),
        )
    return reports


def report_hex(report) -> tuple:
    """An rmse report with every float as its hex form."""
    def hexed(v):
        return v.hex() if isinstance(v, float) else v

    return (
        tuple(tuple(hexed(v) for v in row) for row in report.per_trace),
        tuple(hexed(getattr(report, f)) for f in ("mean_next", "std_next", "mean_final", "std_final")),
        report.folds_skipped,
    )


def hyper_search_oracle(dataset, psi_range, noise_range, repeats, seed, **options):
    """The parameters ``evaluate.hyper_search`` must pick: the same
    log-uniform draws, each scored by its own :func:`loo_rmse_oracle` run;
    the earliest lowest mean next-step RMSE wins."""

    def draw(lo, hi):
        return lo if lo == hi else math.exp(rng.uniform(math.log(lo), math.log(hi)))

    rng = random.Random(seed)
    samples = [KernelParams(draw(*psi_range), draw(*noise_range)) for _ in range(repeats)]
    scheme = "gaussian_process"
    scores = [loo_rmse_oracle(dataset, (scheme,), p, **options)[scheme].mean_next for p in samples]
    return samples[scores.index(min(scores))]


# ---------------------------------------------------------------------------
# dataset serialization, the inverse of traces.load_dataset


def dataset_to_dict(dataset) -> dict:
    out = {
        "kind": dataset.kind,
        "traces": [
            {
                "id": t.id,
                "successful": t.successful,
                "states": [
                    serialize_state(s) if dataset.kind == "tree" else list(s)
                    for s in t.states
                ],
            }
            for t in dataset.traces
        ],
    }
    if dataset.tutor_hints:
        out["tutor_hints"] = [
            {
                "trace": h.trace_id,
                "step": h.step,
                "edit": edit_to_dict(h.edit),
                "quality": h.quality,
            }
            for h in dataset.tutor_hints
        ]
    return out

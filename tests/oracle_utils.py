"""Independent oracles and generators shared across the test modules.

Everything here recomputes expected values by a different route than the
package: breadth-first search over the legal move graph for string
distances, exhaustive enumeration of valid tree mappings for tree
distances, numpy's eigensolver and exact characteristic polynomials for
the embedding, direct coordinate geometry for planted configurations, and
pair-by-pair accumulation for the state coefficients of pair weights.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

import numpy as np

from edithints.editdist import INF, CostModel
from edithints.states import TreeState, tree


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


# ---------------------------------------------------------------------------
# random state generators


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
    accumulated directly from the pair bookkeeping (oracle for
    ``alpha_from_gamma``)."""
    out = np.zeros(len(pairs))
    for i, (xi, yi) in enumerate(pairs.pair_of):
        out[yi] += gamma[i]
        out[xi] -= gamma[i]
    return out

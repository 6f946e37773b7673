"""Independent oracles and generators shared across the test modules.

Everything here recomputes expected values by a different route than the
package: breadth-first search over the legal move graph for string
distances, exhaustive enumeration of valid tree mappings for tree
distances, numpy's eigensolver and exact characteristic polynomials for
the embedding, direct coordinate geometry for planted configurations,
the inverse of an edit for round trips, replaying a script edit by edit,
pair-by-pair accumulation for the state coefficients of pair weights,
loop forms of the Nystrom projection and the prediction step,
sparsification that refits every candidate at every greedy step, and a
hyper-parameter search that scores each sample with a fresh public
leave-one-out run.  It also holds the small builders and serializers
that only tests use: tree construction and size, and a dataset's JSON
object.
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
    SeqEdit,
    TreeEdit,
    apply_edit,
    edit_to_dict,
)
from edithints.evaluate import loo_rmse
from edithints.policies import KernelParams
from edithints.states import Label, TreeState, serialize_state


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


def hyper_search_oracle(dataset, psi_range, noise_range, repeats, seed, **options):
    """The parameters ``evaluate.hyper_search`` must pick: the same
    log-uniform draws, each scored by its own ``loo_rmse`` call; the
    earliest lowest mean next-step RMSE wins."""

    def draw(lo, hi):
        return lo if lo == hi else math.exp(rng.uniform(math.log(lo), math.log(hi)))

    rng = random.Random(seed)
    samples = [KernelParams(draw(*psi_range), draw(*noise_range)) for _ in range(repeats)]
    scores = [loo_rmse(dataset, "gaussian_process", p, **options).mean_next for p in samples]
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

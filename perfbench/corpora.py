"""Seeded input corpora for the benchmark workloads.

Every corpus is a dataset dict in the package's JSON dataset format plus a
list of query states in their text form.  The program under test only ever
sees these generated inputs: the benchmark writes the dataset to a file,
fits it through the CLI code path and sends the query texts to the hint
policy.

Every trace, in training and among the queries, has the same number of
states, and every start is the same number of edits from its goal, so
that the work per fit and per hint drifts little with the seed.  Every
recorded state is strictly closer to its trace's goal than the one before
it, which makes the goal filter keep all of them.

The tree corpus imitates small abstract syntax trees of one loop program.
Students name their variables freely, write commutative operands in either
order and leave comments; the canonicalization config below maps all of
that onto shared canonical trees.  The cost model is non-unit and metric:
relabelling is possible only inside a node kind, at one cost per kind, so
the triangle inequality holds, and relabelling across kinds costs
infinity.
"""

from __future__ import annotations

import random

from edithints.editdist import (
    INF,
    CostModel,
    EditError,
    TreeEdit,
    apply_edit,
    tree_distance,
    tree_distance_only,
)
from edithints.evaluate import synthetic_corpus
from edithints.states import CanonConfig, TreeState, canonicalize, serialize_state, serialize_tree

STATES_PER_TRACE = 4

# ---------------------------------------------------------------------------
# sequences


def _shaped(rng, traces, count: int) -> list:
    """``count`` traces of exactly STATES_PER_TRACE states each: the start,
    the solution and a seeded choice of the states between, in order.
    Traces too short for that are passed over."""
    out = []
    for trace in traces:
        if len(out) == count:
            return out
        if len(trace) >= STATES_PER_TRACE:
            middle = sorted(rng.sample(range(1, len(trace) - 1), STATES_PER_TRACE - 2))
            out.append([trace[0]] + [trace[i] for i in middle] + [trace[-1]])
    if len(out) < count:
        raise ValueError(f"generator produced {len(out)} usable traces, wanted {count}")
    return out


def _sequence_traces(rng, count: int) -> list:
    seed = rng.getrandbits(32)
    n_traces = 2 * count
    while True:
        # the first traces of a seed do not depend on how many are asked for
        dataset = synthetic_corpus(seed, n_traces=n_traces, min_missing=6, max_missing=6)
        try:
            return _shaped(rng, [list(t.states) for t in dataset.traces], count)
        except ValueError:
            n_traces *= 2


def sequence_corpus(seed, traces: int, query_traces: int) -> tuple:
    """Dataset dict of ``traces`` sequence traces, and the texts of the
    states of ``query_traces`` fresh traces (new students), each trace
    start to solution.  ``seed`` is anything ``random.Random`` takes."""
    rng = random.Random(seed)
    data = {
        "kind": "sequence",
        "traces": [
            {"id": f"s{k:03d}", "successful": True, "states": [list(s) for s in trace]}
            for k, trace in enumerate(_sequence_traces(rng, traces))
        ],
    }
    queries = [serialize_state(s) for trace in _sequence_traces(rng, query_traces) for s in trace]
    return data, queries


# ---------------------------------------------------------------------------
# trees

KINDS = {
    "stmt": ("assign", "if", "print", "ret", "while"),
    "op": ("add", "eq", "lt", "mul", "sub"),
    "var": tuple(f"v{k}" for k in range(1, 7)),
    "lit": ("0", "1", "2", "3", "4"),
}
INDEL = {"stmt": 1.5, "op": 1.0, "var": 0.7, "lit": 0.7}
RELABEL = {"stmt": 1.0, "op": 0.6, "var": 0.4, "lit": 0.3}
KIND_OF = {label: kind for kind, labels in KINDS.items() for label in labels}

TREE_CANON = CanonConfig(
    variable_label_prefixes=("var:",),
    commutative_labels=("add", "eq", "mul"),
    dead_labels=("comment",),
)


def tree_cost() -> CostModel:
    """Indel cost per node kind; one relabel cost per kind; infinite
    relabel cost between kinds and for the root."""
    indel = {label: INDEL[kind] for label, kind in KIND_OF.items()}
    indel["prog"] = 2.0
    relabel = {}
    for kind, labels in KINDS.items():
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                relabel[(a, b)] = RELABEL[kind]
    return CostModel(indel_default=1.0, relabel_default=INF, indel=indel, relabel=relabel)


RAW_NAMES = ("var:x", "var:y", "var:n", "var:i", "var:total", "var:count", "var:acc", "var:tmp")


def _t(label, *children):
    return TreeState(label, tuple(children))


def _base_program() -> TreeState:
    # a = 0; while i < n: a = a + i; return a
    return _t(
        "prog",
        _t("assign", _t("v1"), _t("0")),
        _t(
            "while",
            _t("lt", _t("v2"), _t("v3")),
            _t("assign", _t("v1"), _t("add", _t("v1"), _t("v2"))),
        ),
        _t("ret", _t("v1")),
    )


def _paths(t: TreeState, prefix=()):
    yield prefix
    for i, c in enumerate(t.children, 1):
        yield from _paths(c, prefix + (i,))


def _derename(t: TreeState) -> TreeState:
    label = "var:" + t.label if KIND_OF.get(t.label) == "var" else t.label
    return TreeState(label, tuple(_derename(c) for c in t.children))


def _normal(t: TreeState, canon):
    """The tree a student's spelling of ``t`` canonicalizes to, or None.

    ``canonicalize`` leaves ``v<k>`` labels alone, so after an edit the
    variables of a canonical tree may no longer be numbered by first use.
    Spelling them as raw variables and canonicalizing again renumbers them;
    sorting commutative children can move first uses, so repeat until the
    tree is a fixed point.  Trees that do not settle are skipped.
    """
    for _ in range(8):
        nxt = canonicalize(_derename(t), canon)
        if nxt == t:
            return t
        t = nxt
    return None


def _mutate(rng, t: TreeState, canon, kind: str) -> TreeState:
    """Relabel one node inside its kind, or delete one non-root node."""
    for _ in range(50):
        if kind == "relabel":
            path = rng.choice([p for p in _paths(t) if p and t.node_at(p).label in KIND_OF])
            label = t.node_at(path).label
            other = rng.choice([s for s in KINDS[KIND_OF[label]] if s != label])
            edit = TreeEdit("relabel_node", path, other)
        else:
            edit = TreeEdit("delete_node", rng.choice([p for p in _paths(t) if p]))
        out = _normal(apply_edit(t, edit), canon)
        if out is not None:
            return out
    raise ValueError("no mutation of the tree keeps it canonical")


def _tree_trace(rng, cost, canon) -> list:
    """One student's canonical states, start to goal, each strictly closer
    to the goal than the one before."""
    goal = _mutate(rng, _normal(_base_program(), canon), canon, "relabel")
    state = goal
    for _ in range(5):
        state = _mutate(rng, state, canon, "delete")
    state = _mutate(rng, state, canon, "relabel")
    states = [state]
    while state != goal:
        for _ in range(rng.randint(1, 3)):  # states are recorded sparsely
            if state == goal:
                break
            d_here, script = tree_distance(state, goal, cost)
            options = list(script.edits)
            rng.shuffle(options)
            for edit in options:
                try:
                    nxt = _normal(apply_edit(state, edit), canon)
                except EditError:
                    continue
                if nxt is not None and tree_distance_only(nxt, goal, cost) < d_here - 1e-9:
                    state = nxt
                    break
            else:
                state = goal
        states.append(state)
    return states


def _raw_form(rng, state: TreeState, names: dict, canon) -> TreeState:
    """A student's spelling of a canonical state: own variable names,
    operands of commutative labels in either order, stray comments."""

    def render(node: TreeState, swap: bool) -> TreeState:
        label = names.get(node.label, node.label)
        children = [render(c, swap) for c in node.children]
        if swap and node.label in canon.commutative_labels and rng.random() < 0.5:
            children.reverse()
        if node.label in ("prog", "while") and rng.random() < 0.2:
            children.insert(rng.randint(0, len(children)), _t("comment"))
        return TreeState(label, tuple(children))

    raw = render(state, swap=True)
    if canonicalize(raw, canon) != state:
        # swapping operands can reorder the first uses of the variables,
        # which renumbers them; keep the student's written order then
        raw = render(state, swap=False)
    if canonicalize(raw, canon) != state:
        raise ValueError("raw tree does not canonicalize back to its state")
    return raw


def _raw_trace(rng, states, canon) -> list:
    chosen = rng.sample(RAW_NAMES, len(KINDS["var"]))
    names = dict(zip(KINDS["var"], chosen))
    return [serialize_tree(_raw_form(rng, s, names, canon)) for s in states]


def _tree_traces(rng, cost, canon, count: int) -> list:
    traces = []
    while sum(len(t) >= STATES_PER_TRACE for t in traces) < count:
        traces.append(_tree_trace(rng, cost, canon))
    return _shaped(rng, traces, count)


def tree_corpus(seed, traces: int, query_traces: int) -> tuple:
    """Dataset dict of ``traces`` tree traces as raw texts, and the raw
    texts of the states of ``query_traces`` fresh traces, each trace start
    to solution.  ``seed`` is anything ``random.Random`` takes."""
    rng = random.Random(seed)
    cost, canon = tree_cost(), TREE_CANON
    data = {
        "kind": "tree",
        "traces": [
            {"id": f"t{k:03d}", "successful": True, "states": _raw_trace(rng, trace, canon)}
            for k, trace in enumerate(_tree_traces(rng, cost, canon, traces))
        ],
    }
    queries = [
        text
        for trace in _tree_traces(rng, cost, canon, query_traces)
        for text in _raw_trace(rng, trace, canon)
    ]
    return data, queries

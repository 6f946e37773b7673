"""Trace data model: student paths through the state space, their
interaction network, and the training pairs the hint policies learn from.

A trace is one student's recorded sequence of states up to their final
submission; ``successful`` marks whether that submission solved the task
(grading is an input, not something this engine does).  Training pairs
enumerate every state ``x_i`` of every trace together with its successor
``y_i`` in the trace; the final state of a trace is paired with itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .editdist import edit_from_dict, edit_to_dict
from .states import (
    CanonConfig,
    EMPTY_CANON,
    StateError,
    canonicalize_state,
    parse_tree,
    sequence,
    serialize_state,
)

START, INTERMEDIATE, END = "start", "intermediate", "end"


class DataError(ValueError):
    """A dataset file or dataset structure is invalid."""


@dataclass(frozen=True)
class Trace:
    id: str
    states: tuple
    successful: bool

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise DataError(f"trace {self.id!r} has no states")


@dataclass(frozen=True)
class TutorHint:
    trace_id: str
    step: int  # 1-based index into the trace's states as given in the file
    state: object  # canonicalized state the hint applies to
    edit: object
    quality: float

    def __post_init__(self):
        if not 0.0 <= self.quality <= 1.0:
            raise DataError(f"tutor hint quality {self.quality} outside [0, 1]")


@dataclass(frozen=True)
class Dataset:
    kind: str  # "sequence" | "tree"
    traces: tuple
    tutor_hints: tuple = ()

    def successful_traces(self):
        return tuple(t for t in self.traces if t.successful)


def _collapse(states) -> tuple:
    out = [states[0]]
    for s in states[1:]:
        if s != out[-1]:
            out.append(s)
    return tuple(out)


def load_dataset(source, canon: CanonConfig = EMPTY_CANON) -> Dataset:
    """Load a dataset from a JSON string, dict, or file path.

    States are canonicalized on ingest and consecutive duplicates are
    collapsed.  Tutor hint steps index the trace's state list *as given in
    the file* (1-based, before collapsing).
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):  # a path, not JSON text
            try:
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise DataError(f"cannot read dataset {source!r}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"dataset is not valid JSON: {exc}") from exc

    kind = raw.get("kind")
    if kind not in ("sequence", "tree"):
        raise DataError(f"dataset kind must be 'sequence' or 'tree', got {kind!r}")

    traces = []
    originals = {}
    seen_ids = set()
    for ti, entry in enumerate(raw.get("traces", ())):
        tid = entry.get("id")
        if not isinstance(tid, str) or not tid:
            raise DataError(f"trace {ti} has no usable id")
        if tid in seen_ids:
            raise DataError(f"duplicate trace id {tid!r}")
        seen_ids.add(tid)
        raw_states = entry.get("states")
        if not raw_states:
            raise DataError(f"trace {tid!r} has no states")
        states = []
        for si, raw_state in enumerate(raw_states):
            try:
                if kind == "tree":
                    state = parse_tree(raw_state)
                else:
                    state = sequence(raw_state)
            except (StateError, TypeError) as exc:
                raise DataError(f"trace {tid!r} state {si + 1}: {exc}") from exc
            states.append(canonicalize_state(state, canon))
        originals[tid] = tuple(states)
        traces.append(Trace(tid, _collapse(states), bool(entry.get("successful", False))))

    hints = []
    for hi, entry in enumerate(raw.get("tutor_hints", ())):
        tid = entry.get("trace")
        if tid not in originals:
            raise DataError(f"tutor hint {hi} names unknown trace {tid!r}")
        step = int(entry.get("step", 0))
        if not 1 <= step <= len(originals[tid]):
            raise DataError(f"tutor hint {hi} step {step} outside trace {tid!r}")
        try:
            edit = edit_from_dict(entry["edit"])
        except (KeyError, ValueError) as exc:
            raise DataError(f"tutor hint {hi} has no usable edit: {exc}") from exc
        hints.append(
            TutorHint(tid, step, originals[tid][step - 1], edit, float(entry.get("quality", 0.0)))
        )

    return Dataset(kind, tuple(traces), tuple(hints))


def dataset_to_dict(dataset: Dataset) -> dict:
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


def goal_filter(trace: Trace, metric) -> Trace:
    """Drop intermediate states that do not get strictly closer to the
    trace's final state.

    "Closer" compares against the last retained state, so the retained
    distances to the goal are strictly decreasing.  The first and final
    states are always retained.  Only meaningful for successful traces.
    """
    states = trace.states
    if len(states) <= 1:
        return trace
    goal = states[-1]
    kept = [states[0]]
    last_d = metric(states[0], goal)
    for s in states[1:-1]:
        d = metric(s, goal)
        if d < last_d:
            kept.append(s)
            last_d = d
    kept.append(goal)
    return Trace(trace.id, _collapse(kept), trace.successful)


@dataclass(frozen=True)
class TracePairs:
    """Flattened training pairs (x_i, y_i) over a list of traces.

    ``states[i]`` is x_i; ``pair_of[i] = (i, succ)`` points at (x_i, y_i)
    within ``states`` where ``succ = i + 1`` inside a trace and ``succ = i``
    for a trace's final state (the final solution is paired with itself).
    ``position_of[i]`` is start/intermediate/end within the trace;
    a single-state trace's only state counts as an end.
    """

    states: tuple
    pair_of: tuple  # tuple[(int, int)]
    position_of: tuple  # tuple[str]
    trace_of: tuple  # tuple[int], index into trace_ids
    trace_ids: tuple

    def __post_init__(self):
        m = len(self.states)
        if not (len(self.pair_of) == len(self.position_of) == len(self.trace_of) == m):
            raise DataError("inconsistent pair bookkeeping")

    def __len__(self):
        return len(self.states)

    @property
    def end_indices(self) -> tuple:
        return tuple(i for i, p in enumerate(self.position_of) if p == END)

    @property
    def moving_indices(self) -> tuple:
        """Indices of pairs with actual movement (y_i != x_i); these are the
        pairs regression learns from, the final self-pairs contribute the
        zero edit vector."""
        return tuple(i for i, p in enumerate(self.position_of) if p != END)

    @property
    def trace_spans(self) -> tuple:
        """Half-open index range ``(start, stop)`` of each trace's states,
        in ``trace_ids`` order; a trace's states are contiguous."""
        spans = []
        start = 0
        for t in range(len(self.trace_ids)):
            stop = start
            while stop < len(self.trace_of) and self.trace_of[stop] == t:
                stop += 1
            spans.append((start, stop))
            start = stop
        return tuple(spans)


def build_pairs(traces) -> TracePairs:
    states, pair_of, position_of, trace_of, trace_ids = [], [], [], [], []
    for t_index, trace in enumerate(traces):
        trace_ids.append(trace.id)
        base = len(states)
        n = len(trace.states)
        for k, s in enumerate(trace.states):
            states.append(s)
            trace_of.append(t_index)
            if k == n - 1:
                pair_of.append((base + k, base + k))
                position_of.append(END)
            else:
                pair_of.append((base + k, base + k + 1))
                position_of.append(START if k == 0 else INTERMEDIATE)
    return TracePairs(
        tuple(states), tuple(pair_of), tuple(position_of), tuple(trace_of), tuple(trace_ids)
    )


@dataclass(frozen=True)
class InteractionNetwork:
    nodes: frozenset
    edges: frozenset  # ordered state pairs


def interaction_network(traces) -> InteractionNetwork:
    nodes = set()
    edges = set()
    for trace in traces:
        nodes.update(trace.states)
        for a, b in zip(trace.states, trace.states[1:]):
            edges.add((a, b))
    return InteractionNetwork(frozenset(nodes), frozenset(edges))


def network_stats(traces):
    """(number of distinct states, fraction of distinct states visited once).

    Counts are over canonicalized state equality across all given traces.
    """
    visits = {}
    for trace in traces:
        for s in trace.states:
            visits[s] = visits.get(s, 0) + 1
    if not visits:
        return 0, 0.0
    once = sum(1 for n in visits.values() if n == 1)
    return len(visits), once / len(visits)

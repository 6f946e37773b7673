"""Trace data model: student paths through the state space and the
training pairs the hint policies learn from.

A trace is one student's recorded sequence of states up to their final
submission; ``successful`` marks whether that submission solved the task
(grading is an input, not something this engine does).  Training pairs
enumerate every state ``x_i`` of every trace together with its successor
``y_i`` in the trace; the final state of a trace is paired with itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .editdist import EditError, TreeEdit, apply_edit, edit_from_dict
from .states import (
    CanonConfig,
    EMPTY_CANON,
    StateError,
    canonicalize_state,
    parse_tree,
    sequence,
)


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


def _objects(raw: dict, key: str) -> list:
    entries = raw.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DataError(f"dataset {key!r} must be a list of objects")
    return entries


def read_json_object(source: str, what: str) -> tuple:
    """The JSON object that ``source`` gives, and its text.  ``source`` is
    inline JSON when it starts with ``{`` (after any whitespace) and a file
    path otherwise; ``what`` names it in the :class:`DataError` of a failed
    read."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DataError(f"cannot read {what} {source!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{what} must be a JSON object")
    return obj, text


def load_dataset(source, canon: CanonConfig = EMPTY_CANON) -> Dataset:
    """Load a dataset from a dict, or from a JSON string or file path as
    :func:`read_json_object` reads them.

    States are canonicalized on ingest and consecutive duplicates are
    collapsed.  Tutor hint steps index the trace's state list *as given in
    the file* (1-based, before collapsing).  A tutor hint's edit must be of
    the dataset's kind, and a sequence edit must apply to its state.
    """
    raw = source if isinstance(source, dict) else read_json_object(str(source), "dataset")[0]

    kind = raw.get("kind")
    if kind not in ("sequence", "tree"):
        raise DataError(f"dataset kind must be 'sequence' or 'tree', got {kind!r}")

    traces = []
    originals = {}
    seen_ids = set()
    for ti, entry in enumerate(_objects(raw, "traces")):
        tid = entry.get("id")
        if not isinstance(tid, str) or not tid:
            raise DataError(f"trace {ti} has no usable id")
        if tid in seen_ids:
            raise DataError(f"duplicate trace id {tid!r}")
        seen_ids.add(tid)
        raw_states = entry.get("states")
        if not isinstance(raw_states, list) or not raw_states:
            raise DataError(f"trace {tid!r} has no list of states")
        states = []
        for si, raw_state in enumerate(raw_states):
            try:
                if kind == "tree":
                    state = parse_tree(raw_state)
                elif isinstance(raw_state, list):
                    state = sequence(raw_state)
                else:
                    raise StateError(f"a sequence state is an array, got {raw_state!r}")
            except (StateError, TypeError) as exc:
                raise DataError(f"trace {tid!r} state {si + 1}: {exc}") from exc
            states.append(canonicalize_state(state, canon))
        originals[tid] = tuple(states)
        successful = entry.get("successful", False)
        if not isinstance(successful, bool):
            raise DataError(f"trace {tid!r} 'successful' must be true or false, got {successful!r}")
        traces.append(Trace(tid, _collapse(states), successful))

    hints = []
    for hi, entry in enumerate(_objects(raw, "tutor_hints")):
        tid = entry.get("trace")
        if not isinstance(tid, str) or tid not in originals:
            raise DataError(f"tutor hint {hi} names unknown trace {tid!r}")
        step, quality = entry.get("step", 0), entry.get("quality", 0.0)
        # exact types: a bool, a string or a fractional step is not coerced
        if type(step) is not int or type(quality) not in (int, float):
            raise DataError(
                f"tutor hint {hi} has a malformed step or quality: {step!r}, {quality!r}"
            )
        if not 1 <= step <= len(originals[tid]):
            raise DataError(f"tutor hint {hi} step {step} outside trace {tid!r}")
        if not 0 <= quality <= 1:  # checked before float(), which overflows on huge integers
            raise DataError(f"tutor hint {hi} quality {quality} outside [0, 1]")
        state = originals[tid][step - 1]
        try:
            edit = edit_from_dict(entry["edit"])
            if isinstance(edit, TreeEdit) != (kind == "tree"):
                raise EditError(f"a {edit.kind} edit in a {kind} dataset")
            # sequences are never canonicalized, so the edit must apply as
            # given; a tree edit may address a node that canonicalization moved
            if kind == "sequence":
                apply_edit(state, edit)
        except (KeyError, ValueError) as exc:
            raise DataError(f"tutor hint {hi} has no usable edit: {exc}") from exc
        hints.append(TutorHint(tid, step, state, edit, float(quality)))

    return Dataset(kind, tuple(traces), tuple(hints))


def goal_filter(trace: Trace, to_goal) -> Trace:
    """Drop intermediate states that do not get strictly closer to the
    trace's final state; ``to_goal[i]`` is the distance of state ``i`` to
    the final state, whose own entry may be left out.

    "Closer" compares against the last retained state, so the retained
    distances to the goal are strictly decreasing.  The first and final
    states are always retained.  Only meaningful for successful traces.
    """
    states = trace.states
    if len(states) <= 1:
        return trace
    kept = [states[0]]
    last_d = to_goal[0]
    for s, d in zip(states[1:-1], to_goal[1:]):
        if d < last_d:
            kept.append(s)
            last_d = d
    kept.append(states[-1])
    return Trace(trace.id, _collapse(kept), trace.successful)


@dataclass(frozen=True)
class TracePairs:
    """Flattened training pairs (x_i, y_i) over a list of traces.

    ``states[i]`` is x_i.  Trace ``trace_ids[t]`` holds the states in the
    half-open range ``trace_spans[t] = (start, stop)``; the spans tile
    ``states`` in order, one non-empty span per trace, and the ids are
    distinct strings.  The pair indices are derived from the spans once:
    ``successor[i]`` points at y_i, which is ``i + 1`` inside a trace and
    ``i`` at a trace's final state (the final solution is paired with
    itself); ``end_indices`` holds each trace's final state in trace order
    and ``moving_indices`` every other state, the pairs with actual
    movement that regression learns from.
    """

    states: tuple
    trace_ids: tuple
    trace_spans: tuple  # tuple[(int, int)]
    successor: np.ndarray = field(init=False, repr=False, compare=False)
    end_indices: np.ndarray = field(init=False, repr=False, compare=False)
    moving_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bound = 0
        for start, stop in self.trace_spans:
            if not (type(start) is type(stop) is int and start == bound < stop):
                raise DataError(f"trace span {(start, stop)} is not a non-empty range from {bound}")
            bound = stop
        if bound != len(self.states):
            raise DataError(f"trace spans cover {bound} of {len(self.states)} states")
        if len(self.trace_ids) != len(self.trace_spans):
            raise DataError(f"{len(self.trace_ids)} trace ids for {len(self.trace_spans)} traces")
        ids = self.trace_ids
        if not all(isinstance(t, str) for t in ids) or len(set(ids)) != len(ids):
            raise DataError("trace ids must be distinct strings")
        ends = np.array([stop - 1 for _, stop in self.trace_spans], dtype=np.intp)
        successor = np.arange(1, bound + 1)
        successor[ends] = ends
        moving = np.flatnonzero(successor != np.arange(bound))
        derived = {"successor": successor, "end_indices": ends, "moving_indices": moving}
        for name, value in derived.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_lengths(cls, states, trace_ids, lengths) -> "TracePairs":
        """Pairs over ``states`` cut, in order, into traces of the given lengths."""
        bounds = list(accumulate(lengths, initial=0))
        return cls(tuple(states), tuple(trace_ids), tuple(zip(bounds, bounds[1:])))

    def __len__(self):
        return len(self.states)


def build_pairs(traces) -> TracePairs:
    traces = tuple(traces)
    return TracePairs.from_lengths(
        [s for t in traces for s in t.states], [t.id for t in traces], [len(t.states) for t in traces]
    )

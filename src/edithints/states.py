"""State values students edit: symbol sequences and rooted ordered labeled trees.

Two state kinds are supported.  A sequence state is an ordered list of
symbols (possibly empty, e.g. the initial state of a string task).  A tree
state is a rooted, ordered, labeled tree, the usual shape of an abstract
syntax tree.  Both are immutable values; every function here is pure.

Trees have a plain-text bracket format::

    tree  := label | label "(" tree ("," tree)* ")"

Labels that contain a structural delimiter (comma, parenthesis, quote,
whitespace) are written in double quotes with backslash escaping.  The
format round-trips: ``parse_tree(serialize_tree(t)) == t``.  Parsed trees
are at most ``MAX_TREE_DEPTH`` levels deep.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

Label = str

_UNQUOTED_RE = re.compile(r'[^,()"\s\\]+')
_CANON_VAR_RE = re.compile(r"^v[0-9]+$")

# levels (nodes on the longest root-to-leaf path) a parsed tree may have;
# the tree algorithms recurse once or a few times per level
MAX_TREE_DEPTH = 100


class StateError(ValueError):
    """Invalid state value or state text."""


class TreeParseError(StateError):
    """Malformed tree text.  ``offset`` is the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def check_label(label: Label) -> Label:
    if not isinstance(label, str) or not label:
        raise StateError(f"labels must be non-empty strings, got {label!r}")
    if "\n" in label:
        raise StateError(f"labels must not contain newlines: {label!r}")
    return label


SequenceState = tuple  # tuple[Label, ...]


def sequence(symbols) -> SequenceState:
    """Build a sequence state from an iterable of symbols."""
    return tuple(check_label(s) for s in symbols)


@dataclass(frozen=True)
class TreeState:
    """A rooted ordered labeled tree.  Child order is significant."""

    label: Label
    children: tuple = ()  # tuple[TreeState, ...]

    def __post_init__(self):
        check_label(self.label)
        object.__setattr__(self, "children", tuple(self.children))

    def node_at(self, path) -> "TreeState":
        """Return the node addressed by a list of 1-based child indices."""
        node = self
        for depth, i in enumerate(path):
            if not 1 <= i <= len(node.children):
                raise StateError(
                    f"path {list(path)} leaves the tree at depth {depth}"
                )
            node = node.children[i - 1]
        return node


def _quote_label(label: Label) -> str:
    if _UNQUOTED_RE.fullmatch(label):
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_tree(t: TreeState) -> str:
    out = [_quote_label(t.label)]
    if t.children:
        out.append("(")
        out.append(",".join(serialize_tree(c) for c in t.children))
        out.append(")")
    return "".join(out)


def serialize_sequence(s: SequenceState) -> str:
    return json.dumps(list(s))


class _TreeParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TreeParseError:
        return TreeParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_label(self) -> Label:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("expected a label, found end of input")
        if self.text[self.pos] == '"':
            return self.parse_quoted()
        m = _UNQUOTED_RE.match(self.text, self.pos)
        if m is None:
            raise self.error(f"expected a label, found {self.text[self.pos]!r}")
        self.pos = m.end()
        return m.group()

    def parse_quoted(self) -> Label:
        start = self.pos
        self.pos += 1  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.text):
                self.pos = start
                raise self.error("unterminated quoted label")
            ch = self.text[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    raise self.error("dangling escape in quoted label")
                chars.append(self.text[self.pos + 1])
                self.pos += 2
            elif ch == '"':
                self.pos += 1
                if not chars:
                    self.pos = start
                    raise self.error("empty quoted label")
                return "".join(chars)
            else:
                chars.append(ch)
                self.pos += 1

    def parse_tree(self, depth: int = 1) -> TreeState:
        label = self.parse_label()
        self.skip_ws()
        children = []
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            if depth == MAX_TREE_DEPTH:
                raise self.error(f"tree is deeper than {MAX_TREE_DEPTH} levels")
            self.pos += 1
            children.append(self.parse_tree(depth + 1))
            self.skip_ws()
            while self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
                children.append(self.parse_tree(depth + 1))
                self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise self.error("expected ',' or ')'")
            self.pos += 1
        return TreeState(label, tuple(children))


def parse_tree(text: str) -> TreeState:
    """Parse bracket-notation tree text.

    Raises :class:`TreeParseError` with the byte offset of the first
    offending character on malformed input, and at the opening parenthesis
    of a level beyond ``MAX_TREE_DEPTH``.
    """
    parser = _TreeParser(text)
    t = parser.parse_tree()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing text after tree")
    return t


def parse_sequence(text: str) -> SequenceState:
    """Parse a sequence state from a JSON array of symbol strings."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateError(f"sequence text is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise StateError("sequence text must be a JSON array of strings")
    return sequence(raw)


@dataclass(frozen=True)
class CanonConfig:
    """Label-rule canonicalization settings.

    ``variable_label_prefixes``: labels starting with one of these prefixes
    are variables and are renamed ``v1, v2, ...`` by first occurrence in
    pre-order, one name per distinct original label.

    ``commutative_labels``: children of nodes with these labels are sorted
    by the serialized text of their (already canonicalized) subtrees.

    ``dead_labels``: subtrees rooted at these labels are removed (the tree
    root itself is never removed).

    The three lists must be pairwise disjoint.  Renamed labels ``v<k>`` are
    treated as already canonical; input labels matching ``v[0-9]+`` should
    not otherwise occur among variables.
    """

    variable_label_prefixes: tuple = ()
    commutative_labels: tuple = ()
    dead_labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "variable_label_prefixes", tuple(self.variable_label_prefixes)
        )
        object.__setattr__(
            self, "commutative_labels", tuple(self.commutative_labels)
        )
        object.__setattr__(self, "dead_labels", tuple(self.dead_labels))
        groups = [
            set(self.variable_label_prefixes),
            set(self.commutative_labels),
            set(self.dead_labels),
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = groups[i] & groups[j]
                if overlap:
                    raise StateError(
                        f"canonicalization label groups overlap: {sorted(overlap)}"
                    )

    @classmethod
    def from_dict(cls, raw: dict) -> "CanonConfig":
        names = ("variable_label_prefixes", "commutative_labels", "dead_labels")
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise StateError(f"unknown canonicalization key {unknown[0]!r}")
        fields = {}
        for name in names:
            labels = raw.get(name, [])
            if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
                raise StateError(f"canonicalization field {name!r} must be a list of strings")
            fields[name] = tuple(labels)
        return cls(**fields)

    def to_dict(self) -> dict:
        return {
            "variable_label_prefixes": list(self.variable_label_prefixes),
            "commutative_labels": list(self.commutative_labels),
            "dead_labels": list(self.dead_labels),
        }


EMPTY_CANON = CanonConfig()


def _prune_dead(t: TreeState, dead: frozenset) -> TreeState:
    children = tuple(
        _prune_dead(c, dead) for c in t.children if c.label not in dead
    )
    return TreeState(t.label, children)


def _is_variable(label: Label, prefixes) -> bool:
    if _CANON_VAR_RE.fullmatch(label):
        return False  # already canonical
    return any(label.startswith(p) for p in prefixes)


def _rename_variables(t: TreeState, prefixes, mapping: dict) -> TreeState:
    label = t.label
    if _is_variable(label, prefixes):
        if label not in mapping:
            mapping[label] = f"v{len(mapping) + 1}"
        label = mapping[label]
    return TreeState(label, tuple(_rename_variables(c, prefixes, mapping) for c in t.children))


def _sort_commutative(t: TreeState, commutative: frozenset) -> TreeState:
    children = tuple(_sort_commutative(c, commutative) for c in t.children)
    if t.label in commutative:
        children = tuple(sorted(children, key=serialize_tree))
    return TreeState(t.label, children)


def canonicalize(t: TreeState, cfg: CanonConfig = EMPTY_CANON) -> TreeState:
    """Canonicalize a tree: prune dead subtrees, rename variables, sort
    commutative children.

    Renaming happens before sorting so that a second application is the
    identity: after the first pass all variables carry their canonical
    ``v<k>`` names and the sort keys no longer change.  Idempotent; never
    increases the node count; the empty config is the identity transform.
    """
    t = _prune_dead(t, frozenset(cfg.dead_labels))
    if cfg.variable_label_prefixes:
        t = _rename_variables(t, cfg.variable_label_prefixes, {})
    if cfg.commutative_labels:
        t = _sort_commutative(t, frozenset(cfg.commutative_labels))
    return t


def canonicalize_state(state, cfg: CanonConfig = EMPTY_CANON):
    """Canonicalize either state kind.  Sequences are returned unchanged;
    the label rules are defined on trees only."""
    if isinstance(state, TreeState):
        return canonicalize(state, cfg)
    return state


def serialize_state(state) -> str:
    if isinstance(state, TreeState):
        return serialize_tree(state)
    return serialize_sequence(state)


def parse_state(text: str, kind: str):
    if kind == "tree":
        return parse_tree(text)
    if kind == "sequence":
        return parse_sequence(text)
    raise StateError(f"unknown state kind {kind!r}")

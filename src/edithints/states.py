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

import itertools
import json
import re
from dataclasses import dataclass, fields

Label = str

_UNQUOTED_RE = re.compile(r'[^,()"\s\\]+')
_CANON_VAR_RE = re.compile(r"^v[0-9]+$")
_RENAMED_VAR_RE = re.compile(r"v[1-9][0-9]*")

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
    pre-order, one name per distinct original label.  Labels already of
    the form ``v<k>`` are never renamed.

    ``commutative_labels``: children of nodes with these labels are sorted
    by the serialized text of their (already canonicalized) subtrees.

    ``dead_labels``: subtrees rooted at these labels are removed (the tree
    root itself is never removed).

    The three lists must be pairwise disjoint, and when variables are
    renamed no dead label may be a name that renaming gives
    (``v[1-9][0-9]*``): a second pass would remove the renamed node.
    Either fault is a :class:`StateError`.
    """

    variable_label_prefixes: tuple = ()
    commutative_labels: tuple = ()
    dead_labels: tuple = ()

    def __post_init__(self):
        groups = [tuple(getattr(self, f.name)) for f in fields(self)]
        for f, group in zip(fields(self), groups):
            object.__setattr__(self, f.name, group)
        for a, b in itertools.combinations(groups, 2):
            overlap = set(a) & set(b)
            if overlap:
                raise StateError(f"canonicalization label groups overlap: {sorted(overlap)}")
        prefixes, _, dead = groups
        renamed = [label for label in dead if _RENAMED_VAR_RE.fullmatch(label)]
        if prefixes and renamed:
            raise StateError(f"dead label {renamed[0]!r} is a name that variable renaming gives")

    @classmethod
    def from_dict(cls, raw: dict) -> "CanonConfig":
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise StateError(f"unknown canonicalization key {unknown[0]!r}")
        for name in names:
            labels = raw.get(name, [])
            if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
                raise StateError(f"canonicalization field {name!r} must be a list of strings")
        return cls(**{name: raw.get(name, []) for name in names})

    def to_dict(self) -> dict:
        return {f.name: list(getattr(self, f.name)) for f in fields(self)}


EMPTY_CANON = CanonConfig()


def _is_variable(label: Label, prefixes) -> bool:
    # labels already of the form v<k> are canonical
    return label.startswith(prefixes) and not _CANON_VAR_RE.fullmatch(label)


def canonicalize(t: TreeState, cfg: CanonConfig = EMPTY_CANON) -> TreeState:
    """Canonicalize a tree in one walk that builds each output node once.

    At each node, in order: drop the children whose input label is dead;
    rename the node's label if it is a variable (names follow first
    occurrence in pre-order of the pruned tree); walk the kept children in
    input order; then sort them by serialized text if the renamed label is
    commutative.  Renaming precedes sorting, so the transform is idempotent.
    It never increases the node count; the empty config is the identity.
    """
    prefixes = cfg.variable_label_prefixes
    commutative = frozenset(cfg.commutative_labels)
    dead = frozenset(cfg.dead_labels)
    names = {}

    def walk(node: TreeState) -> TreeState:
        label = node.label
        if _is_variable(label, prefixes):
            label = names.setdefault(label, f"v{len(names) + 1}")
        children = [walk(c) for c in node.children if c.label not in dead]
        if label in commutative:
            children.sort(key=serialize_tree)
        return TreeState(label, children)

    return walk(t)


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

"""Game and scheme documents, plus a canonical JSON writer.

The writer is deterministic: plain dicts are emitted with sorted keys,
floats with 12 significant digits, and infinities as the quoted tokens
"inf" / "-inf".  Branch children are the one place where order carries
meaning (it fixes leaf indexing), so they are emitted as an OrderedMap,
which preserves insertion order.

Neither direction recurses, so document depth is bounded only by
`json.loads`.  The reader makes one pass over the document tree with an
explicit stack: it checks each node's JSON types and emits the nodes as
the columns (ids, kinds, owners, labels), plus a utility row and an
emission row per leaf, which `GameTree.from_nodes` validates and lays
out into the tree's columns, so every value rule and the layout stay in
`game_core`; no node object is built.  A value of its exact JSON class
passes a class identity test, and the leaf rows stay the lists
`json.loads` built, their numbers tested as two columns in a few C-level
passes.  Only where a test fails do the per-value helpers run: they name
the first fault in preorder, or accept a subclass (a document built in
code may hold `OrderedMap` children or numpy floats).  The writer is one
loop over a stack of literal text pieces and values still to be written,
and writes a str, float, int or list of them by class before trying
`isinstance`; `game_to_doc` builds a tree's node documents from its
columns.

Every number array and profile from outside, in a document or a flag,
is read by `read_array` or `read_profile`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, itemgetter

import numpy as np

from .errors import ValidationError
from .game_core import GameTree, check_players
from .info_structure import InfoStructure, PaymentScheme

_quote = json.encoder.encode_basestring_ascii  # the bytes of json.dumps(s, ensure_ascii=True)

# values written inline; a list of only these goes on one line
_SCALARS = (str, bool, int, float, np.generic, type(None))


class OrderedMap(dict):
    """Dict whose key order the canonical writer preserves."""


def _format_float(v: float) -> str:
    if v != v:
        raise ValidationError("cannot serialize NaN")
    if v == math.inf:
        return '"inf"'
    if v == -math.inf:
        return '"-inf"'
    out = format(v, ".12g")
    return "0" if out == "-0" else out


# the writers of the exact classes JSON reads back; other scalars, such as
# bools, numpy scalars and subclasses, take the isinstance chain of `_scalar`
_WRITE = {float: _format_float, str: _quote, int: int.__repr__}
_EXACT = frozenset(_WRITE)
_STR = frozenset((str,))


def _scalar(v) -> str:
    write = _WRITE.get(v.__class__)
    if write is not None:
        return write(v)
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return _format_float(v)
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(int(v))
    if v is None:
        return "null"
    raise ValidationError(f"cannot serialize value of type {type(v).__name__}")


def _inline(v) -> str | None:
    """The text of a value written on one line: a scalar, an empty
    container or a list of scalars; None for any other value."""
    cls = v.__class__
    if cls in _EXACT:
        return _WRITE[cls](v)
    if cls is list and {*map(type, v)} <= _EXACT:
        return "[" + ", ".join(map(_scalar, v)) + "]"
    if cls is dict:
        return None if v else "{}"
    if isinstance(v, _SCALARS):
        return _scalar(v)
    if isinstance(v, (list, tuple)) and all(isinstance(x, _SCALARS) for x in v):
        return "[" + ", ".join(map(_scalar, v)) + "]"
    if isinstance(v, dict) and not v:
        return "{}"
    return None


def dumps_canonical(doc) -> str:
    """`doc` as canonical JSON text, written by one loop over a stack of
    literal text pieces (str) and (value, indent) items still to write.
    A container is laid out entry by entry: each run of entries written
    inline becomes one piece, every other entry an item, and they are
    pushed in reverse so that they pop in output order."""
    out: list[str] = []
    stack: list = [(doc, 0)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        v, indent = item
        if isinstance(v, np.ndarray):
            v = v.tolist()
        text = _inline(v)
        if text is not None:
            out.append(text)
            continue
        if isinstance(v, (list, tuple)):
            keys, values = repeat(""), v
            text, close = "[", "]"
        elif isinstance(v, dict):
            if not ({*map(type, v)} <= _STR or all(isinstance(k, str) for k in v)):
                raise ValidationError("document keys must be strings")
            names = list(v) if isinstance(v, OrderedMap) else sorted(v)
            keys, values = [_quote(k) + ": " for k in names], [v[k] for k in names]
            text, close = "{", "}"
        else:
            raise ValidationError(f"cannot serialize value of type {type(v).__name__}")
        inner = "  " * (indent + 1)
        sep = ",\n" + inner
        end = "\n" + "  " * indent + close
        text += "\n" + inner
        lines = [*map(_inline, values)]
        if None not in lines:
            out.append(text + sep.join(map(add, keys, lines)) + end)
            continue
        pieces: list = []
        for k, (key, x, line) in enumerate(zip(keys, values, lines)):
            if k:
                text += sep
            text += key
            if line is None:
                pieces.append(text)
                pieces.append((x, indent + 1))
                text = ""
            else:
                text += line
        pieces.append(text + end)
        stack.extend(reversed(pieces))
    return "".join(out)


def game_to_doc(tree: GameTree, alphabet, profile, costs=None) -> dict:
    """The game document of `tree`; node documents are built over reversed
    preorder, so each node's children are done before it."""
    utilities, emissions = tree.u.T.tolist(), tree.phi.T.tolist()
    docs: list = [None] * len(tree.ids)
    for v in range(len(tree.ids) - 1, -1, -1):
        nid, owner, labels, j = tree.ids[v], tree.owner[v], tree.labels[v], tree.leaf_index[v]
        kids = [docs[c] for c in tree.kids[v]]
        if j >= 0:
            docs[v] = {"leaf": {"id": nid, "utilities": utilities[j], "emission": emissions[j]}}
        elif owner < 0:
            children = [{"p": p, "node": kid} for p, kid in zip(labels, kids)]
            docs[v] = {"chance": {"id": nid, "children": children}}
        else:
            children = OrderedMap(zip(labels, kids))
            docs[v] = {"branch": {"id": nid, "owner": owner, "children": children}}
    doc = {
        "players": list(tree.players),
        "alphabet": list(alphabet),
        "tree": docs[0],
        "intended": dict(profile),
    }
    if costs is not None:
        doc["costs"] = np.asarray(costs).tolist()
    return doc


def _require(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object")
    if key not in doc:
        raise ValidationError(f"{where} is missing {key!r}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{where}.{key} must be a number")
        return _to_floats((value,), f"{where}.{key}")[0]
    if not isinstance(value, kind):
        raise ValidationError(f"{where}.{key} must be {kind.__name__}")
    return value


def _to_floats(numbers, where) -> tuple[float, ...]:
    try:
        return tuple(map(float, numbers))
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{where} must contain only finite numbers") from None


def _parse_numbers(values, where) -> tuple[float, ...]:
    for v in values:
        if v.__class__ is not float and (isinstance(v, bool) or not isinstance(v, (int, float))):
            raise ValidationError(f"{where} must contain only numbers")
    return _to_floats(values, where)


def read_array(raw, where, shape, inf=False) -> np.ndarray:
    """The float array of the nested JSON lists `raw`, one level per entry
    of `shape` (an int fixes that axis's size, None leaves it free): rows
    nonempty and rectangular, values finite numbers and not bools, or with
    `inf` also the token "inf" or +Infinity, read as +inf."""
    level, dims = [raw], []
    for size in shape:
        width = len(level[0]) if level[0].__class__ is list else 0
        if not width or size not in (None, width) or any(
                row.__class__ is not list or len(row) != width for row in level):
            spelled = ", ".join(str(n or "any") for n in shape)
            raise ValidationError(f"{where} must be a nonempty array of shape ({spelled})")
        dims.append(width)
        level = [v for row in level for v in row]
    if inf:
        level = [math.inf if v == "inf" else v for v in level]
    out = np.array(_parse_numbers(level, where)).reshape(dims)
    allowed = np.isfinite(out) | (np.isposinf(out) if inf else False)
    if not allowed.all():
        raise ValidationError(f"{where} must not contain NaN or {'-inf' if inf else 'an infinity'}")
    return out


def read_profile(raw, where) -> dict:
    """A strategy profile: a JSON object mapping branch ids to move names."""
    if not isinstance(raw, dict) or not (
            {*map(type, chain.from_iterable(raw.items()))} <= _STR
            or all(isinstance(x, str) for kv in raw.items() for x in kv)):
        raise ValidationError(f"{where} must be an object mapping branch ids to move names")
    return dict(raw)


_NODE_SHAPE = ("each tree node must be an object with exactly one of "
               "'branch', 'chance', or 'leaf'")

_KINDS = frozenset(("leaf", "branch", "chance"))
_UTILITIES = itemgetter("utilities")
_EMISSION = itemgetter("emission")


def _read_tree(root) -> tuple:
    """The `_structure` triple of a document's tree, read in one preorder
    pass over an explicit stack; each node's JSON types are checked where
    it is read, its values by `GameTree.from_nodes`.  A value of its exact
    JSON class passes an identity test; any other goes to `_require`,
    which raises the fault or accepts a subclass.  Leaf objects are kept
    and their rows checked as columns by `_leaf_rows`, at the end of the
    walk or, before a fault found in the walk is raised, over the leaves
    read so far, so that the first fault in preorder is the one reported."""
    ids: list = []
    kinds: list = []
    owners: list = []
    labels: list = []
    leaves: list = []
    stack = [root]
    try:
        while stack:
            doc = stack.pop()
            if doc.__class__ is not dict and not isinstance(doc, dict):
                raise ValidationError(_NODE_SHAPE)
            try:
                kind, = doc
            except ValueError:  # not exactly one key
                raise ValidationError(_NODE_SHAPE) from None
            body = doc[kind]
            node_id = body.get("id") if body.__class__ is dict else None
            if node_id.__class__ is not str:
                if kind not in _KINDS:
                    raise ValidationError(f"unknown node kind {kind!r}")
                node_id = _require(body, "id", str, kind)
            if kind == "leaf":
                leaves.append(body)
                owner, names = -1, ()
            elif kind == "branch":
                owner = body.get("owner")
                if owner.__class__ is not int:
                    owner = _require(body, "owner", int, f"branch {node_id}")
                    if isinstance(owner, bool):
                        raise ValidationError(f"branch {node_id}.owner must be an integer")
                children = body.get("children")
                if children.__class__ is not dict:
                    children = _require(body, "children", dict, f"branch {node_id}")
                names = tuple(children)
                try:
                    "".join(names)  # the keys of an object read from JSON are strings
                except TypeError:
                    names = tuple(map(str, names))
                stack.extend(reversed(children.values()))
            elif kind == "chance":
                entries = body.get("children")
                if entries.__class__ is not list:
                    entries = _require(body, "children", list, f"chance {node_id}")
                probs, subs = [], []
                for entry in entries:
                    p, sub = ((entry.get("p"), entry.get("node")) if entry.__class__ is dict
                              else (None, None))
                    if p.__class__ is not float:
                        p = _require(entry, "p", float, f"chance {node_id} child")
                    if sub.__class__ is not dict:
                        sub = _require(entry, "node", dict, f"chance {node_id} child")
                    probs.append(p)
                    subs.append(sub)
                owner, names = -1, tuple(probs)
                stack.extend(reversed(subs))
            else:
                raise ValidationError(f"unknown node kind {kind!r}")
            ids.append(node_id)
            kinds.append(kind)
            owners.append(owner)
            labels.append(names)
    except ValidationError:
        _leaf_rows(leaves)
        raise
    return ((ids, kinds, owners, labels), *_leaf_rows(leaves))


def _leaf_rows(leaves) -> tuple[list, list]:
    """The utility rows and the emission rows of the leaf objects `leaves`,
    each a list of numbers that are not bools and fit a float.  Each column
    is tested in a few passes at C speed, and its rows are kept as read;
    only when a test fails are the leaves walked in preorder, utilities
    before emission, to report the first fault or to convert the numbers
    of a subclass."""
    try:
        utilities = [*map(_UTILITIES, leaves)]
        emissions = [*map(_EMISSION, leaves)]
    except KeyError:
        pass
    else:
        if _plain_rows(utilities) and _plain_rows(emissions):
            return utilities, emissions
    utilities, emissions = [], []
    for body in leaves:
        where = f"leaf {body['id']}"
        utilities.append(_parse_numbers(_require(body, "utilities", list, where), "utilities"))
        emissions.append(_parse_numbers(_require(body, "emission", list, where), "emission"))
    return utilities, emissions


_LIST = frozenset((list,))
_FLOAT = frozenset((float,))
_NUMBER = frozenset((float, int))


def _plain_rows(rows) -> bool:
    """Whether `rows` are lists of floats, or of floats and ints that
    convert to floats."""
    if not {*map(type, rows)} <= _LIST:
        return False
    classes = {*map(type, chain.from_iterable(rows))}
    if classes <= _FLOAT:
        return True
    if not classes <= _NUMBER:
        return False
    try:  # an int beyond the float range does not convert
        deque(map(float, chain.from_iterable(rows)), 0)
    except OverflowError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class GameDocument:
    tree: GameTree
    info: InfoStructure
    profile: dict
    costs: np.ndarray | None


def parse_game_doc(doc) -> GameDocument:
    players = _require(doc, "players", list, "document")
    if not players or not all(isinstance(p, str) for p in players):
        raise ValidationError("players must be a nonempty list of names")
    alphabet = _require(doc, "alphabet", list, "document")
    if not alphabet or not all(isinstance(a, str) for a in alphabet):
        raise ValidationError("alphabet must be a nonempty list of symbols")
    # arguments run left to right: the players are checked before the tree is read
    tree = GameTree.from_nodes(check_players(players),
                               _read_tree(_require(doc, "tree", dict, "document")))
    info = InfoStructure.from_tree(tree, tuple(alphabet))
    profile = read_profile(_require(doc, "intended", dict, "document"), "intended")
    shape = (tree.n, len(alphabet))
    costs = read_array(doc["costs"], "costs", shape, inf=True) if "costs" in doc else None
    return GameDocument(tree=tree, info=info, profile=profile, costs=costs)


def scheme_to_doc(alphabet, scheme: PaymentScheme) -> dict:
    return {
        "alphabet": list(alphabet),
        "lambda": scheme.matrix.tolist(),
        "max_deposits": scheme.max_deposits.tolist(),
    }


def parse_scheme_doc(doc) -> tuple[tuple[str, ...], PaymentScheme]:
    alphabet = _require(doc, "alphabet", list, "document")
    if not alphabet or not all(isinstance(a, str) for a in alphabet):
        raise ValidationError("alphabet must be a nonempty list of symbols")
    lam = read_array(_require(doc, "lambda", list, "document"), "lambda", (None, len(alphabet)))
    return tuple(alphabet), PaymentScheme(lam)

"""Game and scheme documents, plus a canonical JSON writer.

The writer is deterministic: plain dicts are emitted with sorted keys,
floats with 12 significant digits, and infinities as the quoted tokens
"inf" / "-inf".  Branch children are the one place where order carries
meaning (it fixes leaf indexing), so they are emitted as an OrderedMap,
which preserves insertion order.

Neither direction recurses, so document depth is bounded only by
`json.loads`.  The reader makes one pass over the document tree with an
explicit stack: it checks each node's JSON types and emits the node as
(id, kind, owner, labels), plus a utility row and an emission row per
leaf, which `GameTree.from_nodes` validates and lays out into the
tree's columns, so every value rule and the layout stay in `game_core`;
no node object is built.  The writer is one loop over a stack of
literal text pieces and values still to be written; `game_to_doc`
builds a tree's node documents from its columns.

Every number array and profile from outside, in a document or a flag,
is read by `read_array` or `read_profile`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


def _scalar(v) -> str:
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
            entries = [("", x) for x in v]
            text, close = "[", "]"
        elif isinstance(v, dict):
            if not all(isinstance(k, str) for k in v):
                raise ValidationError("document keys must be strings")
            keys = list(v) if isinstance(v, OrderedMap) else sorted(v)
            entries = [(_quote(k) + ": ", v[k]) for k in keys]
            text, close = "{", "}"
        else:
            raise ValidationError(f"cannot serialize value of type {type(v).__name__}")
        pieces: list = []
        inner = "  " * (indent + 1)
        sep = ",\n" + inner
        text += "\n" + inner
        for k, (key, x) in enumerate(entries):
            if k:
                text += sep
            text += key
            line = _inline(x)
            if line is None:
                pieces.append(text)
                pieces.append((x, indent + 1))
                text = ""
            else:
                text += line
        pieces.append(text + "\n" + "  " * indent + close)
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
    if not isinstance(raw, dict) or not all(isinstance(x, str) for kv in raw.items() for x in kv):
        raise ValidationError(f"{where} must be an object mapping branch ids to move names")
    return dict(raw)


_NODE_SHAPE = ("each tree node must be an object with exactly one of "
               "'branch', 'chance', or 'leaf'")

_KINDS = frozenset(("leaf", "branch", "chance"))


def _read_tree(root) -> tuple:
    """The `_structure` triple of a document's tree, read in one preorder
    pass over an explicit stack; each node's JSON types are checked where
    it is read, its values by `GameTree.from_nodes`."""
    nodes, utilities, emissions = [], [], []
    stack = [root]
    while stack:
        doc = stack.pop()
        if not isinstance(doc, dict) or len(doc) != 1:
            raise ValidationError(_NODE_SHAPE)
        (kind, body), = doc.items()
        if kind not in _KINDS:
            raise ValidationError(f"unknown node kind {kind!r}")
        node_id = _require(body, "id", str, kind)
        where = f"{kind} {node_id}"
        if kind == "leaf":
            utilities.append(_parse_numbers(_require(body, "utilities", list, where), "utilities"))
            emissions.append(_parse_numbers(_require(body, "emission", list, where), "emission"))
            owner, names, subs = -1, (), ()
        elif kind == "branch":
            owner = _require(body, "owner", int, where)
            if isinstance(owner, bool):
                raise ValidationError(f"{where}.owner must be an integer")
            children = _require(body, "children", dict, where)
            names, subs = tuple(map(str, children)), children.values()
        else:
            probs, subs = [], []
            for entry in _require(body, "children", list, where):
                probs.append(_require(entry, "p", float, where + " child"))
                subs.append(_require(entry, "node", dict, where + " child"))
            owner, names = -1, tuple(probs)
        nodes.append((node_id, kind, owner, names))
        stack.extend(reversed(subs))
    return nodes, utilities, emissions


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

"""Game and scheme documents, plus a canonical JSON writer.

The writer is deterministic: plain dicts are emitted with sorted keys,
floats with 12 significant digits, and infinities as the quoted tokens
"inf" / "-inf".  Branch children are the one place where order carries
meaning (it fixes leaf indexing), so they are emitted as an OrderedMap,
which preserves insertion order.

Neither direction recurses, so document depth is bounded only by
`json.loads`.  A document's tree is in the one nested format of
`game_core`, which owns its reader: `parse_game_doc` checks the
document's other fields and hands the tree to `GameTree`.  The writer is
one loop over a stack of literal text pieces and values still to be
written, and writes a str, float, int or list of them by class before
trying `isinstance`; `game_to_doc` builds a tree's nodes from its columns
with `leaf`, `branch` and `chance`.

Every number array and profile from outside, in a document or a flag,
is read by `read_array` or `read_profile`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add

import numpy as np

from .errors import ValidationError
from .game_core import (GameTree, OrderedMap, _parse_numbers, _require, branch, chance,
                        check_players, leaf)
from .info_structure import InfoStructure, PaymentScheme

_quote = json.encoder.encode_basestring_ascii  # the bytes of json.dumps(s, ensure_ascii=True)

# values written inline; a list of only these goes on one line
_SCALARS = (str, bool, int, float, np.generic, type(None))


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
    """The game document of `tree`; its nodes are built over reversed
    preorder, so each node's children are done before it."""
    utilities, emissions = tree.u.T.tolist(), tree.phi.T.tolist()
    nodes: list = [None] * len(tree.ids)
    for v in range(len(tree.ids) - 1, -1, -1):
        nid, owner, labels, j = tree.ids[v], tree.owner[v], tree.labels[v], tree.leaf_index[v]
        kids = [nodes[c] for c in tree.kids[v]]
        if j >= 0:
            nodes[v] = leaf(nid, utilities[j], emissions[j])
        elif owner < 0:
            nodes[v] = chance(nid, zip(labels, kids))
        else:
            nodes[v] = branch(nid, owner, zip(labels, kids))
    doc = {
        "players": list(tree.players),
        "alphabet": list(alphabet),
        "tree": nodes[0],
        "intended": dict(profile),
    }
    if costs is not None:
        doc["costs"] = np.asarray(costs).tolist()
    return doc


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
    tree = GameTree(check_players(players), _require(doc, "tree", dict, "document"))
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

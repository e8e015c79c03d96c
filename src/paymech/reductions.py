"""Structured instance generators.

Two families: single-blame damage schemes (a diagonal payment matrix
over a blame alphabet), and a gadget game encoding an inequality system
A x >= b so that securing the intended profile is equivalent to
feasibility of the system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeComponent,
    PatternViolated,
    PreconditionViolated,
    ValidationError,
)
from .game_core import GameTree, branch, leaf
from .info_structure import InfoStructure, PaymentScheme

PATTERN_TOL = 1e-9

TOP = "top"


def blame_alphabet(n: int) -> tuple[str, ...]:
    """('top', 'bot_1', ..., 'bot_n'): all-clear plus one blame symbol each."""
    return (TOP,) + tuple(f"bot_{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class AlaSpec:
    """Fixed per-player damages charged when that player alone is blamed."""

    damages: tuple

    def __post_init__(self):
        d = tuple(float(v) for v in self.damages)
        if not d:
            raise ValidationError("damages vector must be nonempty")
        if not all(np.isfinite(d)):
            raise ValidationError("damages must be finite")
        object.__setattr__(self, "damages", d)

    @property
    def n(self) -> int:
        return len(self.damages)


def ala_scheme(spec: AlaSpec) -> tuple[tuple[str, ...], PaymentScheme]:
    """Payment matrix charging d_i exactly when symbol bot_i is emitted."""
    n = spec.n
    lam = np.zeros((n, n + 1))
    lam[:, 1:] = np.diag(spec.damages)
    return blame_alphabet(n), PaymentScheme(lam)


@dataclass(frozen=True, eq=False)
class LpGadgetInstance:
    """Game encoding of {A x >= b, x >= 0} with cost vector c.

    Player 1 picks an inequality to attack (or the harmless target leaf),
    player 2 chooses per gadget whether to uphold their inequality, and
    player 3 is a moveless liquidity stub whose payments bankroll player
    2's compensations.  Row i is normalized by its sum so the 'uphold'
    leaf can emit symbol bot_j with probability a[i, j] / sum(a[i]).
    """

    tree: GameTree
    info: InfoStructure
    profile: dict
    costs: np.ndarray  # 3 x (n+1), +inf pins the forced-zero pattern
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.a.shape[1]

    @property
    def num_inequalities(self) -> int:
        return self.a.shape[0]


def lp_to_game(a, b, c) -> LpGadgetInstance:
    """Build the gadget game for minimize c.x s.t. A x >= b, x >= 0.

    Requires A >= 0 entrywise with strictly positive row sums, so each
    normalized row is a pdf and clamping payments to x >= 0 preserves
    feasibility.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise PreconditionViolated(f"need a nonempty 2D inequality matrix, got shape {a.shape}")
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionMismatch(f"b must have length {m}, got {b.shape[0]}")
    if c.shape[0] != n:
        raise DimensionMismatch(f"c must have length {n}, got {c.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise PreconditionViolated("inputs must be finite")
    if np.any(a < 0):
        raise PreconditionViolated("inequality matrix must be entrywise nonnegative")
    row_sums = a.sum(axis=1)
    if np.any(row_sums <= 0):
        raise PreconditionViolated("every inequality row must have a positive sum")

    a_bar = a / row_sums[:, None]
    b_bar = b / row_sums
    beyond = ~(np.isfinite(row_sums) & np.isfinite(b_bar))
    if beyond.any():
        raise PreconditionViolated(
            f"inequality row {beyond.argmax() + 1} has a sum or normalized right-hand side "
            "beyond the float range")

    gadgets = []
    profile = {}
    for i in range(1, m + 1):
        attack = leaf(f"g{i}_sabotage", (1.0, b_bar[i - 1], 0.0), (1.0,) + (0.0,) * n)
        uphold = leaf(f"g{i}_uphold", (0.0, 0.0, 0.0), (0.0, *a_bar[i - 1]))
        gadgets.append((f"gadget_{i}", branch(f"g{i}", 1, [("left", attack), ("right", uphold)])))
        profile[f"g{i}"] = "right"
    target = leaf("target", (0.0, 0.0, 0.0), (1.0,) + (0.0,) * n)
    tree = GameTree(("P1", "P2", "P3"), branch("root", 0, gadgets + [("target", target)]))
    profile["root"] = "gadget_1"

    info = InfoStructure.from_tree(tree, blame_alphabet(n))
    costs = np.full((3, n + 1), np.inf)
    costs[1, 1:] = -c
    costs[2, 1:] = c
    return LpGadgetInstance(
        tree=tree,
        info=info,
        profile=profile,
        costs=costs,
        a=a,
        b=b,
        c=c,
    )


def scheme_from_point(inst: LpGadgetInstance, x) -> PaymentScheme:
    """Encode a candidate point as payments: player 2 is paid x_k on
    bot_k, funded by player 3 forfeiting the same amount."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != inst.num_vars:
        raise DimensionMismatch(f"point must have length {inst.num_vars}, got {x.shape[0]}")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise NegativeComponent("point must be entrywise nonnegative and finite")
    lam = np.zeros((3, inst.num_vars + 1))
    lam[1, 1:] = -x
    lam[2, 1:] = x
    return PaymentScheme(lam)


def point_from_scheme(inst: LpGadgetInstance, scheme: PaymentScheme) -> np.ndarray:
    """Recover the candidate point from player 2's blame-column payments.

    Negative payments are compensations, so x_k = max(0, -lambda[P2, bot_k]);
    clamping keeps A x >= b intact because A is nonnegative.
    """
    n = inst.num_vars
    if scheme.matrix.shape != (3, n + 1):
        raise DimensionMismatch(
            f"scheme must be 3x{n + 1}, got {scheme.matrix.shape[0]}x{scheme.matrix.shape[1]}"
        )
    if np.any(np.abs(scheme.matrix[0]) > PATTERN_TOL):
        raise PatternViolated("player 1 payments must all be zero")
    if np.any(np.abs(scheme.matrix[:, 0]) > PATTERN_TOL):
        raise PatternViolated("payments on the all-clear symbol must be zero")
    return np.maximum(0.0, -scheme.matrix[1, 1:])

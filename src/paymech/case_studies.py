"""Two worked scenario builders with closed-form payment targets.

Commerce: a seller ships (or not), then the buyer pays (or not), with a
noisy arbitration oracle blaming one side when the trade sours.

Covert computation: n parties run a protocol where a cheater is caught
and publicly attributed with probability eps; aborts are always
attributed.  Payment targets make honesty a strict equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BadParameters, NumericalBreakdown
from .game_core import GameTree, branch, chance, leaf
from .info_structure import InfoStructure, PaymentScheme, scheme_diagnostics


def _finite(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise BadParameters(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class CommerceParams:
    """price x, seller valuation x_prime, buyer valuation y, oracle error eps"""

    x: float
    x_prime: float
    y: float
    eps: float

    def __post_init__(self):
        for name in ("x", "x_prime", "y", "eps"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not (self.y > self.x > self.x_prime > 0):
            raise BadParameters(
                f"need y > x > x_prime > 0, got y={self.y}, x={self.x}, x_prime={self.x_prime}"
            )
        if not 0 < self.eps < 0.5:
            raise BadParameters(f"need 0 < eps < 1/2, got {self.eps}")


@dataclass(frozen=True, eq=False)
class CommerceInstance:
    params: CommerceParams
    tree: GameTree
    info: InfoStructure
    profile: dict
    target_e: np.ndarray
    scheme: PaymentScheme
    # every security gap under target_e equals x: verification succeeds
    # up to this margin and fails just beyond it
    achieved_margin: float


COMMERCE_ALPHABET = ("top", "bot_B", "bot_S")


def build_commerce(params: CommerceParams) -> CommerceInstance:
    """Seller-then-buyer trade game, its oracle emissions, and the
    closed-form payment matrix hitting the target utilities exactly."""
    x, xp, y, eps = params.x, params.x_prime, params.y, params.eps

    top = (1.0, 0.0, 0.0)
    tree = GameTree(
        ("B", "S"),
        branch(
            "root",
            1,
            [
                (
                    "not_send",
                    branch(
                        "after_not_send",
                        0,
                        [
                            ("accept", leaf("paid_no_item", (-x, x), top)),
                            ("reject", leaf("no_trade", (0.0, 0.0), (0.0, 1 - eps, eps))),
                        ],
                    ),
                ),
                (
                    "send",
                    branch(
                        "after_send",
                        0,
                        [
                            ("reject", leaf("item_not_paid", (y, -xp), (0.0, eps, 1 - eps))),
                            ("accept", leaf("trade", (y - x, x - xp), top)),
                        ],
                    ),
                ),
            ],
        ),
    )
    profile = {"root": "send", "after_send": "accept", "after_not_send": "reject"}
    info = InfoStructure.from_tree(tree, COMMERCE_ALPHABET)

    target_e = np.array(
        [
            [-x, 0.0, y - 2 * x, y - x],
            [x, -xp, -xp, x - xp],
        ]
    )
    k = 1.0 - 2.0 * eps
    scheme = PaymentScheme(
        np.array(
            [
                [0.0, -2.0 * eps * x / k, 2.0 * (1 - eps) * x / k],
                [0.0, (1 - eps) * xp / k, -eps * xp / k],
            ]
        )
    )
    return CommerceInstance(
        params=params,
        tree=tree,
        info=info,
        profile=profile,
        target_e=target_e,
        scheme=scheme,
        achieved_margin=x,
    )


@dataclass(frozen=True)
class PvcParams:
    """n parties (2 to MAX_N), deterrence eps, cheat payoff u_plus (scalar
    or one per party), exposure payoff u_minus, security margin delta"""

    # every leaf emits over 2n+1 symbols, so size grows with n squared:
    # n=1000 took about 2 s and 400 MB to build on a 2-vCPU VM
    MAX_N: ClassVar[int] = 1000

    n: int
    eps: float
    u_plus: tuple
    u_minus: float
    delta: float

    def __post_init__(self):
        if int(self.n) != self.n or not 2 <= self.n <= self.MAX_N:
            raise BadParameters(f"need an integer n from 2 to {self.MAX_N}, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("eps", "u_minus", "delta"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        up = (self.u_plus,) * self.n if np.ndim(self.u_plus) == 0 else self.u_plus
        up = tuple(_finite("u_plus", v) for v in up)
        if len(up) != self.n:
            raise BadParameters(f"u_plus must be scalar or length {self.n}, got {len(up)}")
        object.__setattr__(self, "u_plus", up)
        if not 0 < self.eps <= 1:
            raise BadParameters(f"need 0 < eps <= 1, got {self.eps}")
        if not all(v > 1 for v in self.u_plus):
            raise BadParameters("need u_plus > 1 (honest payoff is normalized to 1)")
        if not self.u_minus < 0:
            raise BadParameters(f"need u_minus < 0, got {self.u_minus}")
        if self.delta < 0:
            raise BadParameters(f"need delta >= 0, got {self.delta}")


@dataclass(frozen=True, eq=False)
class PvcInstance:
    params: PvcParams
    tree: GameTree
    info: InfoStructure
    profile: dict
    target_e: np.ndarray
    scheme: PaymentScheme
    collapsed: bool
    # every security gap under target_e equals 1 + delta
    achieved_margin: float
    column_sums: np.ndarray
    self_contained: bool
    # delta at or above which the derived scheme is self-contained (exact)
    self_containment_threshold: float
    # the cruder sufficient threshold without the (1 - eps) factor
    conservative_threshold: float


def pvc_alphabet(n: int) -> tuple[str, ...]:
    out = ["top"]
    for i in range(1, n + 1):
        out += [f"abort_{i}", f"cheat_{i}"]
    return tuple(out)


def _pvc_tree(params: PvcParams, collapse: bool) -> GameTree:
    n, eps, um = params.n, params.eps, params.u_minus
    s = 2 * n + 1

    def emission(index, p=1.0, rest_top=False):
        e = [0.0] * s
        e[index] = p
        if rest_top:
            e[0] = 1.0 - p
        return tuple(e)

    node = leaf("honest", (1.0,) * n, emission(0))
    for i in range(n, 0, -1):
        up = params.u_plus[i - 1]
        abort_leaf = leaf(f"abort_{i}", (0.0,) * n, emission(2 * i - 1))
        if collapse:
            utils = tuple(
                (1 - eps) * up if j == i - 1 else (1 - eps) * um for j in range(n)
            )
            cheat_node = leaf(f"cheat_{i}", utils, emission(2 * i, p=eps, rest_top=True))
        else:
            win = tuple(up if j == i - 1 else um for j in range(n))
            cheat_node = chance(
                f"n{i}",
                [
                    (1 - eps, leaf(f"cheat_{i}_win", win, emission(0))),
                    (eps, leaf(f"cheat_{i}_caught", (0.0,) * n, emission(2 * i))),
                ],
            )
        node = branch(
            f"p{i}",
            i - 1,
            [("abort", abort_leaf), ("cheat", cheat_node), ("continue", node)],
        )
    return GameTree(tuple(f"P{i}" for i in range(1, n + 1)), node)


def build_pvc(params: PvcParams, collapse: bool = True) -> PvcInstance:
    """Sequential cheat-or-continue game over n parties.

    The payment matrix is always derived by solving against the collapsed
    tree (expected-utility cheat leaves), where the emission matrix is
    square and invertible for eps > 0.  With collapse=False the returned
    tree keeps the explicit caught/undetected lottery, for simulation.
    """
    n, eps, um, delta = params.n, params.eps, params.u_minus, params.delta
    alphabet = pvc_alphabet(n)

    collapsed_tree = _pvc_tree(params, collapse=True)
    collapsed_info = InfoStructure.from_tree(collapsed_tree, alphabet)

    u = collapsed_tree.u
    m = 2 * n + 1
    target_e = np.zeros((n, m))
    target_e[:, m - 1] = 1.0
    for i in range(1, n + 1):
        target_e[i - 1, 2 * (i - 1)] = -delta
        target_e[i - 1, 2 * i - 1] = -delta

    try:
        lam = np.linalg.solve(collapsed_info.phi.T, (u - target_e).T).T
    except np.linalg.LinAlgError:  # a subnormal eps underflows the pivots
        raise NumericalBreakdown(f"emission matrix is singular at eps={eps!r}") from None
    scheme = PaymentScheme(lam)
    diagnostics = scheme_diagnostics(scheme)

    base = np.array([params.u_plus[i] + (n - 1) * um for i in range(n)])
    exact = float(np.max(-(1 - eps) * base))
    conservative = float(np.max(-base))

    if collapse:
        tree, info = collapsed_tree, collapsed_info
    else:
        tree = _pvc_tree(params, collapse=False)
        info = InfoStructure.from_tree(tree, alphabet)
    profile = {f"p{i}": "continue" for i in range(1, n + 1)}

    return PvcInstance(
        params=params,
        tree=tree,
        info=info,
        profile=profile,
        target_e=target_e,
        scheme=scheme,
        collapsed=collapse,
        achieved_margin=1.0 + delta,
        column_sums=diagnostics.column_sums,
        self_contained=diagnostics.self_contained,
        self_containment_threshold=exact,
        conservative_threshold=conservative,
    )

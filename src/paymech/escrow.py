"""Deposit escrow lifecycle: deposit, play, observe a symbol, repay.

Every player posts their worst-case payment up front; after the game
reaches a leaf and a symbol is drawn from that leaf's pdf, each player
is repaid their deposit minus the payment the symbol dictates.  Episodes
are deterministic functions of (instance, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, DimensionMismatch
from .game_core import Branch, GameTree, StrategyProfile, check_profile
from .info_structure import InfoStructure, PaymentScheme


@dataclass(frozen=True, eq=False)
class Episode:
    seed: int
    leaf_index: int
    leaf_id: str
    symbol_index: int
    symbol: str
    deposits: np.ndarray
    repayments: np.ndarray
    net_losses: np.ndarray
    realized_utilities: np.ndarray

    @property
    def surplus(self) -> float:
        """Money left in escrow after repayments; burned, never minted."""
        return float(self.net_losses.sum())


def _sample_index(probs, rng) -> int:
    # inverse-cdf draw; one uniform per random event keeps streams stable
    edges = np.cumsum(probs)
    r = rng.random() * edges[-1]
    return int(np.searchsorted(edges, r, side="right").clip(0, len(probs) - 1))


def _check_instance(tree, info, scheme):
    if info.m != tree.m:
        raise DimensionMismatch(f"info structure has {info.m} leaf columns, tree has {tree.m}")
    if scheme.n != tree.n or scheme.s != info.s:
        raise DimensionMismatch(
            f"scheme is {scheme.n}x{scheme.s}, expected {tree.n}x{info.s}"
        )


def run_episode(
    tree: GameTree,
    info: InfoStructure,
    scheme: PaymentScheme,
    profile: StrategyProfile,
    seed: int,
) -> Episode:
    """Play one episode under the profile with a seeded generator."""
    _check_instance(tree, info, scheme)
    return _play(tree, info, scheme, check_profile(tree, profile), seed)


def _play(tree, info, scheme, chosen, seed) -> Episode:
    """One episode under the resolved profile `chosen`."""
    rng = np.random.default_rng(seed)
    v = 0
    while tree.kids[v]:
        node = tree.order[v]
        if isinstance(node, Branch):
            v = chosen[v]
        else:
            v = tree.kids[v][_sample_index([p for p, _ in node.children], rng)]
    node = tree.order[v]

    symbol_index = _sample_index(node.emission, rng)
    deposits = scheme.max_deposits
    net_losses = scheme.matrix[:, symbol_index].copy()
    return Episode(
        seed=seed,
        leaf_index=node.index,
        leaf_id=node.id,
        symbol_index=symbol_index,
        symbol=info.alphabet[symbol_index],
        deposits=deposits,
        repayments=deposits - net_losses,
        net_losses=net_losses,
        realized_utilities=np.asarray(node.utilities) - net_losses,
    )


@dataclass(frozen=True, eq=False)
class McResult:
    trials: int
    seed: int
    mean_utilities: np.ndarray
    std_errors: np.ndarray
    symbol_frequencies: np.ndarray
    mean_net_losses: np.ndarray


def trial_seed(master_seed: int, index: int) -> int:
    """Per-trial seed from a fixed splitting rule; order-independent."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def monte_carlo(
    tree: GameTree,
    info: InfoStructure,
    scheme: PaymentScheme,
    profile: StrategyProfile,
    trials: int,
    seed: int,
) -> McResult:
    """Estimate implemented utilities by repeated seeded episodes."""
    if trials < 1:
        raise BadParameters(f"trials must be >= 1, got {trials}")
    _check_instance(tree, info, scheme)
    chosen = check_profile(tree, profile)

    utilities = np.empty((trials, tree.n))
    losses = np.empty((trials, tree.n))
    counts = np.zeros(info.s)
    for idx in range(trials):
        ep = _play(tree, info, scheme, chosen, trial_seed(seed, idx))
        utilities[idx] = ep.realized_utilities
        losses[idx] = ep.net_losses
        counts[ep.symbol_index] += 1.0

    if trials > 1:
        errors = utilities.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        errors = np.zeros(tree.n)
    return McResult(
        trials=trials,
        seed=seed,
        mean_utilities=utilities.mean(axis=0),
        std_errors=errors,
        symbol_frequencies=counts / trials,
        mean_net_losses=losses.mean(axis=0),
    )

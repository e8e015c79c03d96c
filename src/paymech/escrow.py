"""Deposit escrow lifecycle: deposit, play, observe a symbol, repay.

Every player posts their worst-case payment up front; after the game
reaches a leaf and a symbol is drawn from that leaf's pdf, each player
is repaid their deposit minus the payment the symbol dictates.  Episodes
are deterministic functions of (instance, seed): one generator draws one
uniform per chance node on the path and one for the symbol.  Monte Carlo
plays all its trials, in order, from one `default_rng(seed)`, so its
first trial is `run_episode(seed)`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BadParameters, DimensionMismatch
from .game_core import GameTree, StrategyProfile, check_profile
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
    edges = list(accumulate(probs))
    r = rng.random() * edges[-1]
    return min(bisect_right(edges, r), len(edges) - 1)


def _check_instance(tree, info, scheme, seed):
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadParameters(f"seed must be a nonnegative integer, got {seed!r}")
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
    _check_instance(tree, info, scheme, seed)
    v, symbol_index = _play(tree, check_profile(tree, profile), info.phi.T,
                            np.random.default_rng(seed))
    j = tree.leaf_index[v]
    deposits = scheme.max_deposits
    net_losses = scheme.matrix[:, symbol_index].copy()
    return Episode(
        seed=seed,
        leaf_index=j,
        leaf_id=tree.ids[v],
        symbol_index=symbol_index,
        symbol=info.alphabet[symbol_index],
        deposits=deposits,
        repayments=deposits - net_losses,
        net_losses=net_losses,
        realized_utilities=tree.u[:, j] - net_losses,
    )


def _play(tree, chosen, emissions, rng):
    """The leaf position and the symbol index of one episode under
    `chosen`, drawn from `rng`; `emissions[j]` is leaf j's pdf."""
    kids, owner, labels = tree.kids, tree.owner, tree.labels
    v = 0
    while kids[v]:
        v = chosen[v] if owner[v] >= 0 else kids[v][_sample_index(labels[v], rng)]
    return v, _sample_index(emissions[tree.leaf_index[v]], rng)


@dataclass(frozen=True, eq=False)
class McResult:
    trials: int
    seed: int
    mean_utilities: np.ndarray
    std_errors: np.ndarray
    symbol_frequencies: np.ndarray
    mean_net_losses: np.ndarray


def trial_seed(master_seed: int, index: int) -> int:
    """Per-trial seed from a fixed splitting rule; order-independent.

    For independent `run_episode` replays; `monte_carlo` does not use it
    (its trials share one generator)."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def monte_carlo(
    tree: GameTree,
    info: InfoStructure,
    scheme: PaymentScheme,
    profile: StrategyProfile,
    trials: int,
    seed: int,
) -> McResult:
    """Estimate implemented utilities from `trials` episodes played in
    order from one `default_rng(seed)`; trial 0 is `run_episode(seed)`."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise BadParameters(f"trials must be an integer >= 1, got {trials!r}")
    _check_instance(tree, info, scheme, seed)
    chosen = check_profile(tree, profile)

    rng = np.random.default_rng(seed)
    emissions = info.phi.T.tolist()
    plays = [_play(tree, chosen, emissions, rng) for _ in range(trials)]
    leaves = np.array([tree.leaf_index[v] for v, _ in plays])
    symbols = np.array([k for _, k in plays])
    # one C-ordered row per trial, as run_episode prices it
    losses = scheme.matrix.T[symbols]
    utilities = tree.u.T[leaves] - losses
    counts = np.bincount(symbols, minlength=info.s)

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

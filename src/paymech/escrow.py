"""Deposit escrow lifecycle: deposit, play, observe a symbol, repay.

Every player posts their worst-case payment up front; after the game
reaches a leaf and a symbol is drawn from that leaf's pdf, each player
is repaid their deposit minus the payment the symbol dictates.  The
mechanism sees only the symbol, so an episode's outcome is one draw from
the joint law of (leaf, symbol): the on-profile leaf weights w of
`GameTree.reach` times the emission matrix.  Episodes are deterministic
functions of (instance, seed): one `default_rng(seed)` draws one uniform
per trial and inverts it through the cumulative sums of that law, laid
out leaf-major (each reachable leaf's symbols in order, leaves in leaf
order).  Monte Carlo draws all its trials from one generator in trial
order, so its first trial is `run_episode(seed)`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    leaves, symbols = _draw(tree, info, check_profile(tree, profile),
                            np.random.default_rng(seed), 1)
    j, symbol_index = int(leaves[0]), int(symbols[0])
    deposits = scheme.max_deposits
    net_losses = scheme.matrix[:, symbol_index].copy()
    return Episode(
        seed=seed,
        leaf_index=j,
        leaf_id=tree.ids[tree.leaf_index.index(j)],
        symbol_index=symbol_index,
        symbol=info.alphabet[symbol_index],
        deposits=deposits,
        repayments=deposits - net_losses,
        net_losses=net_losses,
        realized_utilities=tree.u[:, j] - net_losses,
    )


def _draw(tree, info, chosen, rng, trials):
    """Leaf numbers and symbol indices of `trials` episodes under
    `chosen`: one uniform each from `rng`, inverted through the
    leaf-major cumulative joint law.  `side="right"` never lands on an
    entry of zero mass."""
    leaves, weights = map(np.array, zip(*tree.reach(0, chosen)))
    edges = np.cumsum((info.phi[:, leaves] * weights).T.ravel())
    picks = np.minimum(np.searchsorted(edges, rng.random(trials) * edges[-1], side="right"),
                       edges.size - 1)
    rows, symbols = np.divmod(picks, info.s)
    return leaves[rows], symbols


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
    """Estimate implemented utilities from `trials` episodes drawn in
    order from one `default_rng(seed)`; trial 0 is `run_episode(seed)`."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise BadParameters(f"trials must be an integer >= 1, got {trials!r}")
    if trials > np.iinfo(np.intp).max // 8:  # one float64 per trial must be addressable
        raise BadParameters(f"trials must be at most {np.iinfo(np.intp).max // 8}, got {trials}")
    _check_instance(tree, info, scheme, seed)
    chosen = check_profile(tree, profile)

    leaves, symbols = _draw(tree, info, chosen, np.random.default_rng(seed), trials)
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

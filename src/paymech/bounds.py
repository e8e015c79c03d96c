"""Matrix norms, norm-based deposit estimates and the sound deposit bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConstraints, ValidationError
from .game_core import GameTree, StrategyProfile
from .info_structure import InfoStructure
from .security import ConstraintSystem, SecurityParams, build_constraints
from .synthesis import _minmax_payment


def spectral_norm(mat) -> float:
    """Largest singular value."""
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class NormReport:
    one_norm: float  # max absolute column sum
    two_norm: float  # largest singular value
    inf_norm: float  # max absolute row sum
    max_norm: float  # max absolute entry


def norms(mat) -> NormReport:
    two_norm = spectral_norm(mat)  # checks that mat is a finite matrix
    a = np.abs(np.asarray(mat, dtype=np.float64))
    if a.size == 0:
        return NormReport(0.0, 0.0, 0.0, 0.0)
    return NormReport(
        one_norm=float(a.sum(axis=0).max()),
        two_norm=two_norm,
        inf_norm=float(a.sum(axis=1).max()),
        max_norm=float(a.max()),
    )


def constraint_utility_product(system: ConstraintSystem, u: np.ndarray) -> np.ndarray:
    """The alpha x n matrix pairing each constraint row with each player's
    utility row: entry (r, i) applies row r's per-leaf coefficients for
    player i to that player's utilities.  Its 2-norm drives the bound."""
    out = np.zeros((system.alpha, system.n))
    out[np.arange(system.alpha), system.player] = system.dot(u)
    return out


@dataclass(frozen=True)
class BoundReport:
    optimistic_bound: float
    conservative_bound: float
    delta_g: float
    delta: float
    t: int
    n: int
    num_symbols: int
    alpha: int
    au_norm: float


def deposit_lower_bound(
    tree: GameTree, info: InfoStructure, profile: StrategyProfile, params: SecurityParams
) -> BoundReport:
    """`delta_g`, the min-max deposit at delta = 0, is a sound lower bound:
    a self-contained scheme securing the profile at (delta, t), any delta
    >= 0, meets those rows, so its largest payment is no smaller.  The
    norm-based estimates are not guarantees: a verified scheme can pay less.

    Raises NoConstraints (carrying `delta_g`) when the instance generates
    no security rows and the estimates are undefined.
    """
    # only the right-hand side depends on delta, so one delta=0 build serves both
    system = build_constraints(tree, profile, SecurityParams(delta=0.0, t=params.t))
    delta_g = _minmax_payment(tree, info, profile, system)
    if system.alpha == 0:
        raise NoConstraints("no security constraints generated", min_max_deposit=delta_g)
    au = constraint_utility_product(system, tree.u)
    au_norm = spectral_norm(au)
    n, s, alpha = tree.n, info.s, system.alpha
    # two readings of the rhs-vector norm: row-sum style and plain Euclidean
    optimistic = (params.delta * math.sqrt(n) + au_norm / math.sqrt(n * alpha)) / (2.0 * s)
    conservative = params.delta / (2.0 * s * math.sqrt(n)) + au_norm / (
        2.0 * s * math.sqrt(n * alpha)
    )
    return BoundReport(
        optimistic_bound=optimistic,
        conservative_bound=conservative,
        delta_g=delta_g,
        delta=params.delta,
        t=params.t,
        n=n,
        num_symbols=s,
        alpha=alpha,
        au_norm=au_norm,
    )

"""Emission matrices and payment schemes.

An information structure pairs a symbol alphabet with a column-stochastic
emission matrix Phi (one column per leaf, one row per symbol).  A payment
scheme is an n-by-s matrix whose (i, k) entry is the utility player i
forfeits when symbol k is observed; negative entries are payouts.  The
implemented utilities of a game under a scheme are E = U - Lambda @ Phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParameters,
    DimensionMismatch,
    NotLeftInvertible,
    TargetNotImplementable,
    ValidationError,
)
from .game_core import GameTree, check_emission_columns

RANK_REL_TOL = 1e-10
TARGET_RESIDUAL_TOL = 1e-8
SUM_TOL = 1e-9
ZERO_INFLATION_TOL = 1e-8


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of `values`; an array already read-only is shared."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class InfoStructure:
    """Alphabet plus column-stochastic emission matrix, shape (s, m)."""

    alphabet: tuple[str, ...]
    phi: np.ndarray

    def __post_init__(self):
        alphabet = tuple(str(a) for a in self.alphabet)
        if not alphabet:
            raise BadParameters("alphabet must contain at least one symbol")
        if len(set(alphabet)) != len(alphabet):
            raise BadParameters("alphabet symbols must be unique")
        phi = _frozen_array(self.phi)
        if phi.ndim != 2:
            raise DimensionMismatch("emission matrix must be two-dimensional")
        if phi.shape[0] != len(alphabet):
            raise DimensionMismatch(
                f"emission matrix has {phi.shape[0]} rows for {len(alphabet)} symbols"
            )
        if phi.shape[1] < 1:
            raise DimensionMismatch("emission matrix needs at least one column")
        check_emission_columns(phi, lambda j: f"leaf column {j}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "phi", phi)

    @property
    def s(self) -> int:
        return self.phi.shape[0]

    @property
    def m(self) -> int:
        return self.phi.shape[1]

    @classmethod
    def from_tree(cls, tree: GameTree, alphabet) -> "InfoStructure":
        """The information structure of the tree's leaf emissions; it shares
        the tree's read-only `phi`."""
        if tree.num_symbols != len(tuple(alphabet)):
            raise DimensionMismatch(
                f"leaves emit over {tree.num_symbols} symbols, alphabet has {len(tuple(alphabet))}"
            )
        return cls(tuple(alphabet), tree.phi)

    def __eq__(self, other):
        if not isinstance(other, InfoStructure):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.phi, other.phi)

    def __hash__(self):
        return hash((self.alphabet, self.phi.tobytes()))


@dataclass(frozen=True, eq=False)
class PaymentScheme:
    """Per-symbol utility losses, shape (n, s); finite entries only."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.matrix)
        if mat.ndim != 2:
            raise DimensionMismatch("payment matrix must be two-dimensional")
        if mat.shape[0] < 1 or mat.shape[1] < 1:
            raise DimensionMismatch("payment matrix must be at least 1x1")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("payment matrix entries must be finite")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def s(self) -> int:
        return self.matrix.shape[1]

    @property
    def max_deposits(self) -> np.ndarray:
        """Per-player deposit: the largest loss the scheme can charge."""
        return self.matrix.max(axis=1)

    def __eq__(self, other):
        if not isinstance(other, PaymentScheme):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())


@dataclass(frozen=True)
class SchemeDiagnostics:
    column_sums: np.ndarray = field(compare=False)
    self_contained: bool
    zero_inflation: bool
    max_deposits: np.ndarray = field(compare=False)
    max_norm: float


def check_shapes(tree: GameTree, info: InfoStructure, scheme: PaymentScheme | None = None) -> None:
    """The shape rule of every analysis: one info column per leaf, and a
    scheme of one row per player and one column per symbol."""
    if info.m != tree.m:
        raise DimensionMismatch(f"info structure has {info.m} leaf columns, tree has {tree.m}")
    if scheme is not None and (scheme.n != tree.n or scheme.s != info.s):
        raise DimensionMismatch(f"scheme is {scheme.n}x{scheme.s}, expected {tree.n}x{info.s}")


def implemented_utilities(u_matrix, scheme: PaymentScheme, info: InfoStructure) -> np.ndarray:
    """E = U - Lambda @ Phi."""
    u = np.asarray(u_matrix, dtype=np.float64)
    if u.ndim != 2:
        raise DimensionMismatch("utility matrix must be two-dimensional")
    if u.shape[0] != scheme.n:
        raise DimensionMismatch(f"{u.shape[0]} utility rows vs {scheme.n} scheme rows")
    if scheme.s != info.s:
        raise DimensionMismatch(f"scheme covers {scheme.s} symbols, alphabet has {info.s}")
    if u.shape[1] != info.m:
        raise DimensionMismatch(f"{u.shape[1]} utility columns vs {info.m} emission columns")
    return u - scheme.matrix @ info.phi


def left_inverse(info: InfoStructure) -> np.ndarray:
    """Minimum-norm M with M @ Phi = I, if the columns are independent.

    Raises NotLeftInvertible (carrying the computed rank) when
    rank(Phi) < m, in which case some target utilities cannot be
    implemented by any payment scheme.
    """
    phi = info.phi
    sing = np.linalg.svd(phi, compute_uv=False)
    rank = int(np.sum(sing > RANK_REL_TOL * (sing[0] if sing.size else 0.0)))
    if rank < info.m:
        raise NotLeftInvertible(
            f"emission matrix has rank {rank} < {info.m} columns", rank=rank
        )
    return np.linalg.pinv(phi)


def scheme_for_target(u_matrix, e_target, info: InfoStructure) -> PaymentScheme:
    """Solve Lambda @ Phi = U - E row by row, minimum-norm.

    Raises TargetNotImplementable when the least-squares residual of any
    player row exceeds the implementability tolerance.
    """
    u = np.asarray(u_matrix, dtype=np.float64)
    e = np.asarray(e_target, dtype=np.float64)
    if u.shape != e.shape:
        raise DimensionMismatch(f"utility shape {u.shape} vs target shape {e.shape}")
    if u.ndim != 2 or u.shape[1] != info.m:
        raise DimensionMismatch(f"{u.shape} utilities vs {info.m} emission columns")
    rhs = (u - e).T  # one column per player
    sol, _, _, _ = np.linalg.lstsq(info.phi.T, rhs, rcond=None)
    residuals = np.linalg.norm(info.phi.T @ sol - rhs, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > TARGET_RESIDUAL_TOL:
        raise TargetNotImplementable(
            f"target utilities are off the emission row space (residual {worst:.3e})",
            worst_residual=worst,
        )
    return PaymentScheme(sol.T)


def scheme_diagnostics(scheme: PaymentScheme) -> SchemeDiagnostics:
    sums = scheme.matrix.sum(axis=0)
    sums.setflags(write=False)
    return SchemeDiagnostics(
        column_sums=sums,
        self_contained=bool(np.all(sums >= -SUM_TOL)),
        zero_inflation=bool(np.all(np.abs(sums) <= SUM_TOL)),
        max_deposits=scheme.max_deposits,
        max_norm=float(np.abs(scheme.matrix).max()),
    )


def zero_inflation_precondition(u_matrix, e_target) -> bool:
    """Columns of U - E must sum to zero for any zero-inflation scheme."""
    diff = np.asarray(u_matrix, dtype=np.float64) - np.asarray(e_target, dtype=np.float64)
    return bool(np.all(np.abs(diff.sum(axis=0)) <= ZERO_INFLATION_TOL))

"""Adjacency-matrix representation of first order digraph calculi.

Functions act as diagonal matrices, the differential as a commutator with
the (possibly weighted) adjacency matrix, and the doubled block construction
provides a selfadjoint operator with grading, i.e. an even spectral triple.
Weights are stored directly in the matrix entries (1/length per arrow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .finite_calculus import Digraph

TRIPLE_TOL = 1e-12


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Nonnegative square matrix with zero diagonal; entry != 0 iff arrow."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("adjacency matrix must be square")
        if np.any(np.diagonal(m) != 0):
            raise ValidationError("adjacency matrix must have zero diagonal")
        if not np.all(np.isfinite(m)):
            raise ValidationError("adjacency weights must be finite")
        if np.any(m < 0):
            raise ValidationError("adjacency weights must be nonnegative")
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_digraph(cls, graph: Digraph, lengths: dict | None = None):
        """Weighted matrix with entries 1/length; unweighted arrows get 1."""
        m = np.zeros((graph.n, graph.n))
        for (i, j) in graph.arrows:
            ell = 1.0 if lengths is None else lengths.get((i, j), 1.0)
            if not 0 < ell < math.inf:
                raise ValidationError(
                    f"arrow length for {(i, j)} must be positive and finite"
                )
            m[i, j] = 1.0 / ell
        return cls(m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def arrows(self):
        return [tuple(ij) for ij in np.argwhere(self.entries != 0)]

    def is_selfadjoint(self, tol: float = TRIPLE_TOL) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.T), initial=0.0) <= tol)


@dataclass(frozen=True)
class DoubledOperator:
    """Selfadjoint block operator [[0, D^dag], [D, 0]] with grading diag(1, -1)."""

    block: np.ndarray
    grading: np.ndarray

    @property
    def n_points(self) -> int:
        return self.block.shape[0] // 2

    def represent(self, values) -> np.ndarray:
        """The doubled diagonal representation of a function."""
        f = np.asarray(values)
        if f.shape != (self.n_points,):
            raise ValidationError("function length must match the point count")
        return np.diag(np.concatenate([f, f]))


@dataclass(frozen=True)
class TripleReport:
    selfadjoint_ok: bool
    grading_square_ok: bool
    anticommute_ok: bool
    commute_ok: bool
    selfadjoint_residual: float
    grading_square_residual: float
    anticommute_residual: float
    commute_residual: float

    @property
    def all_ok(self) -> bool:
        return (
            self.selfadjoint_ok
            and self.grading_square_ok
            and self.anticommute_ok
            and self.commute_ok
        )

    def as_dict(self) -> dict:
        return {
            "selfadjoint_ok": self.selfadjoint_ok,
            "grading_square_ok": self.grading_square_ok,
            "anticommute_ok": self.anticommute_ok,
            "commute_ok": self.commute_ok,
            "selfadjoint_residual": self.selfadjoint_residual,
            "grading_square_residual": self.grading_square_residual,
            "anticommute_residual": self.anticommute_residual,
            "commute_residual": self.commute_residual,
        }


def represent_function(values) -> np.ndarray:
    return np.diag(np.asarray(values))


def commutator_differential(matrix, values) -> np.ndarray:
    """[D, f] entrywise: D_ij (f(j) - f(i))."""
    d = matrix.entries if isinstance(matrix, AdjacencyMatrix) else np.asarray(matrix)
    f = np.asarray(values)
    if f.shape != (d.shape[0],):
        raise ValidationError("function length must match the matrix size")
    return d * (f[None, :] - f[:, None])


def double(matrix) -> DoubledOperator:
    d = matrix.entries if isinstance(matrix, AdjacencyMatrix) else np.asarray(matrix)
    n = d.shape[0]
    zero = np.zeros_like(d)
    block = np.block([[zero, d.conj().T], [d, zero]])
    grading = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return DoubledOperator(block=block, grading=grading)


def _maxabs(m) -> float:
    return float(np.max(np.abs(m), initial=0.0))


def verify_triple(op: DoubledOperator, fs=(), tol: float = TRIPLE_TOL) -> TripleReport:
    """Residuals of the even-triple identities for the doubled operator."""
    d_hat, g = op.block, op.grading
    sa = _maxabs(d_hat - d_hat.conj().T)
    g2 = _maxabs(g @ g - np.eye(g.shape[0]))
    anti = _maxabs(g @ d_hat + d_hat @ g)
    comm = 0.0
    for f in fs:
        f_hat = op.represent(f)
        comm = max(comm, _maxabs(g @ f_hat - f_hat @ g))
    return TripleReport(
        selfadjoint_ok=sa <= tol,
        grading_square_ok=g2 <= tol,
        anticommute_ok=anti <= tol,
        commute_ok=comm <= tol,
        selfadjoint_residual=sa,
        grading_square_residual=g2,
        anticommute_residual=anti,
        commute_residual=comm,
    )

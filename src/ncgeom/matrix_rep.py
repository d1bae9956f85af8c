"""Adjacency-matrix representation of first order digraph calculi.

Functions act as diagonal matrices, the differential as a commutator with
the (possibly weighted) adjacency matrix, and the doubled block construction
provides a selfadjoint operator with grading, i.e. an even spectral triple.
Weights are stored directly in the matrix entries (1/length per arrow).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, finite_array, overflow_is_numeric, positive_real
from .finite_calculus import Digraph

TRIPLE_TOL = 1e-12


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Nonnegative square matrix with zero diagonal; entry != 0 iff arrow."""

    entries: np.ndarray

    def __post_init__(self):
        m = finite_array(self.entries, "adjacency weights").astype(float, copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("adjacency matrix must be square")
        if np.any(np.diagonal(m) != 0):
            raise ValidationError("adjacency matrix must have zero diagonal")
        if np.any(m < 0):
            raise ValidationError("adjacency weights must be nonnegative")
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_digraph(cls, graph: Digraph, lengths: dict | None = None):
        """Weighted matrix with entries 1/length; unweighted arrows get 1."""
        if not isinstance(graph, Digraph):
            raise ValidationError("an adjacency matrix needs a Digraph")
        if lengths is not None and not isinstance(lengths, Mapping):
            raise ValidationError("lengths must map arrows to lengths")
        stray = set(lengths or ()) - graph.arrows
        if stray:
            raise ValidationError(f"lengths given for non-arrows {sorted(stray)}")
        m = np.zeros((graph.n, graph.n))
        for (i, j) in graph.arrows:
            ell = 1.0 if lengths is None else lengths.get((i, j), 1.0)
            m[i, j] = 1.0 / positive_real(ell, "each arrow length")
        return cls(m)


@dataclass(frozen=True)
class DoubledOperator:
    """Selfadjoint block operator [[0, D^dag], [D, 0]] with grading diag(1, -1)."""

    block: np.ndarray
    grading: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.block)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] % 2:
            raise ValidationError("doubled block must be square with even side")
        n = b.shape[0] // 2
        if np.any(b[:n, :n]) or np.any(b[n:, n:]):
            raise ValidationError("doubled block must have zero diagonal blocks")
        if not np.array_equal(b[:n, n:], b[n:, :n].conj().T):
            raise ValidationError("doubled block must be [[0, D^dag], [D, 0]]")
        g = np.asarray(self.grading)
        if g.dtype.kind not in "iufc" or g.shape != b.shape:
            raise ValidationError(f"grading must be a numeric {b.shape[0]} x {b.shape[0]} matrix")
        object.__setattr__(self, "block", b)
        object.__setattr__(self, "grading", g)

    @property
    def n_points(self) -> int:
        return self.block.shape[0] // 2

    def represent(self, values) -> np.ndarray:
        """The doubled diagonal representation of a function."""
        f = np.diagonal(represent_function(values))
        if len(f) != self.n_points:
            raise ValidationError("function length must match the point count")
        return np.diag(np.concatenate([f, f]))


@dataclass(frozen=True)
class TripleReport:
    grading_square_ok: bool
    anticommute_ok: bool
    commute_ok: bool
    grading_square_residual: float
    anticommute_residual: float
    commute_residual: float

    @property
    def all_ok(self) -> bool:
        return self.grading_square_ok and self.anticommute_ok and self.commute_ok


def base_matrix(operator) -> np.ndarray:
    """The n x n matrix D of an AdjacencyMatrix, a DoubledOperator (its lower
    left block) or a square array, in the dtype it has."""
    if isinstance(operator, DoubledOperator):
        n = operator.n_points
        return np.asarray(operator.block[n:, :n])
    if isinstance(operator, AdjacencyMatrix):
        return operator.entries
    m = np.asarray(operator)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("operator must be a square matrix")
    return m


def represent_function(values) -> np.ndarray:
    """The diagonal matrix of a function, given by its finite real or
    complex values at the points."""
    f = finite_array(values, "function values", kinds="iufc")
    if f.ndim != 1:
        raise ValidationError("function values must be a 1-D array")
    return np.diag(f)


@overflow_is_numeric
def commutator_differential(matrix, values) -> np.ndarray:
    """[D, f] entrywise: D_ij (f(j) - f(i)), for finite real or complex f."""
    d = base_matrix(matrix)
    f = finite_array(values, "function values", kinds="iufc")
    if f.shape != (d.shape[0],):
        raise ValidationError("function length must match the matrix size")
    return _commutator(d, f)


def _commutator(d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """[D, f] of a matrix and a checked function, or of a stack of them, for
    solvers' inner loops."""
    return d * (f[..., None, :] - f[..., :, None])


def double(matrix) -> DoubledOperator:
    d = base_matrix(matrix)
    if d.dtype.kind not in "iufc":
        raise ValidationError(f"operator entries must be numbers, not {d.dtype}")
    n = d.shape[0]
    zero = np.zeros_like(d)
    block = np.block([[zero, d.conj().T], [d, zero]])
    grading = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return DoubledOperator(block=block, grading=grading)


def _maxabs(m) -> float:
    return float(np.max(np.abs(m), initial=0.0))


def verify_triple(op: DoubledOperator, fs=()) -> TripleReport:
    """Residuals of the even-triple identities for the doubled operator; its
    block is selfadjoint by construction (see `DoubledOperator`)."""
    if not isinstance(op, DoubledOperator):
        raise ValidationError("verify_triple needs a DoubledOperator")
    d_hat, g = op.block, op.grading
    g2 = _maxabs(g @ g - np.eye(g.shape[0]))
    anti = _maxabs(g @ d_hat + d_hat @ g)
    comm = 0.0
    for f in fs:
        f_hat = op.represent(f)
        comm = max(comm, _maxabs(g @ f_hat - f_hat @ g))
    return TripleReport(
        grading_square_ok=g2 <= TRIPLE_TOL,
        anticommute_ok=anti <= TRIPLE_TOL,
        commute_ok=comm <= TRIPLE_TOL,
        grading_square_residual=g2,
        anticommute_residual=anti,
        commute_residual=comm,
    )

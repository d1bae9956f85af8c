"""Tests for the adjacency representation and the doubled spectral triple."""

import numpy as np
import pytest

from ncgeom.errors import ValidationError
from ncgeom.finite_calculus import Digraph, build_universal, reduce
from ncgeom.matrix_rep import (
    AdjacencyMatrix,
    DoubledOperator,
    commutator_differential,
    double,
    represent_function,
    verify_triple,
)

FIG1 = AdjacencyMatrix(
    np.array(
        [
            [0, 1, 0, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 0],
            [0, 0, 1, 0],
        ],
        dtype=float,
    )
)


def test_represent_function_basics():
    assert np.array_equal(represent_function([1, 1, 1]), np.eye(3))
    ek = represent_function([0, 1, 0])
    assert ek[1, 1] == 1 and np.count_nonzero(ek) == 1
    assert np.array_equal(represent_function([1, 2, 3]), np.diag([1.0, 2, 3]))


def test_commutator_on_two_point_complete_graph():
    d = AdjacencyMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    fp, fq = 2.0, 5.0
    c = commutator_differential(d, [fp, fq])
    assert np.array_equal(c, np.array([[0.0, fq - fp], [fp - fq, 0.0]]))


def test_commutator_constant_function_vanishes():
    assert np.all(commutator_differential(FIG1, [3.0] * 4) == 0)


def test_weighted_chain_superdiagonal():
    lengths = [0.5, 2.0, 1.25]
    graph = Digraph.from_arrows(4, [(k, k + 1) for k in range(3)])
    d = AdjacencyMatrix.from_digraph(
        graph, {(k, k + 1): lengths[k] for k in range(3)}
    )
    f = np.array([0.0, 1.0, 3.0, -2.0])
    c = commutator_differential(d, f)
    for k in range(3):
        assert c[k, k + 1] == pytest.approx((f[k + 1] - f[k]) / lengths[k])
    assert np.count_nonzero(c) == 3


def test_commutator_matches_function_differential_coefficients():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = rng.integers(2, 6)
        arrows = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.5
        ]
        graph = Digraph.from_arrows(int(n), arrows)
        lengths = {a: float(rng.uniform(0.5, 2.0)) for a in arrows}
        d = AdjacencyMatrix.from_digraph(graph, lengths)
        f = rng.normal(size=int(n))
        c = commutator_differential(d, f)
        calc = reduce(build_universal(int(n), degree_cap=2), arrows)
        df = calc.function_differential(list(f))
        for (i, j) in arrows:
            assert c[i, j] == pytest.approx(df.coefficient((i, j)) / lengths[(i, j)])
        mask = np.zeros((n, n), dtype=bool)
        for a in arrows:
            mask[a] = True
        assert np.all(c[~mask] == 0)


def test_double_symmetrizes_the_digraph():
    chain = AdjacencyMatrix.from_digraph(
        Digraph.from_arrows(4, [(k, k + 1) for k in range(3)])
    )
    op = double(chain)
    n = 4
    lower = op.block[n:, :n]
    upper = op.block[:n, n:]
    sym_pattern = (chain.entries + chain.entries.T) != 0
    assert np.array_equal((lower != 0) | (upper != 0), sym_pattern)


def test_double_zero_matrix_is_degenerate_triple():
    op = double(np.zeros((3, 3)))
    assert np.all(op.block == 0)
    assert verify_triple(op, [np.ones(3)]).all_ok


def test_fig1_doubled_is_selfadjoint():
    op = double(FIG1)
    assert op.block.shape == (8, 8)
    assert np.max(np.abs(op.block - op.block.T)) == 0


def test_verify_triple_random_weighted_digraphs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.uniform(0, 2, size=(n, n)) * (rng.random((n, n)) < 0.4)
        np.fill_diagonal(m, 0.0)
        op = double(AdjacencyMatrix(m))
        fs = [rng.normal(size=n) for _ in range(3)]
        rep = verify_triple(op, fs)
        assert rep.all_ok
        assert rep.anticommute_residual < 1e-12


def test_tampered_grading_detected():
    op = double(FIG1)
    bad = op.grading.copy()
    bad[5, 5] *= -1  # flip one sign
    tampered = DoubledOperator(block=op.block, grading=bad)
    rep = verify_triple(tampered, [np.arange(4.0)])
    assert not rep.anticommute_ok
    assert rep.anticommute_residual > 0


def test_example1_needs_no_doubling():
    d = AdjacencyMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert d.is_selfadjoint()


def test_validation():
    with pytest.raises(ValidationError):
        AdjacencyMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        AdjacencyMatrix(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        commutator_differential(FIG1, [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_and_lengths_rejected(bad):
    with pytest.raises(ValidationError):
        AdjacencyMatrix(np.array([[0.0, bad], [1.0, 0.0]]))
    graph = Digraph.from_arrows(2, [(0, 1)])
    with pytest.raises(ValidationError):
        AdjacencyMatrix.from_digraph(graph, {(0, 1): abs(bad)})


def test_lengths_of_non_arrows_rejected():
    graph = Digraph.from_arrows(2, [(0, 1)])
    with pytest.raises(ValidationError, match=r"\(1, 0\)"):
        AdjacencyMatrix.from_digraph(graph, {(1, 0): 3.0, (0, 1): 2.0})
    m = AdjacencyMatrix.from_digraph(graph, {(0, 1): 2.0})
    assert np.array_equal(m.entries, [[0.0, 0.5], [0.0, 0.0]])

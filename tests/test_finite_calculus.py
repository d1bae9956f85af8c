"""Tests for the digraph calculi: bases, quotients, product and differential."""

import itertools
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeom.errors import ValidationError
from ncgeom.finite_calculus import (
    Digraph,
    FiniteSet,
    FormExpr,
    ReducedCalculus,
    _rref,
    build_universal,
    complete_arrows,
    differential,
    function_differential,
    multiply,
    reduce,
)

# Fig. 1 digraph on four points (0-based): 0->1, 1->2, 0->3, 3->2.
FIG1_ARROWS = {(0, 1), (1, 2), (0, 3), (3, 2)}


def fig1_calculus():
    return reduce(build_universal(4), FIG1_ARROWS)


def random_digraph(rng, n):
    arrows = [a for a in complete_arrows(n) if rng.random() < 0.5]
    return Digraph.from_arrows(n, arrows)


def random_expr(rng, calc, degree, n_terms=3):
    basis = calc.basis(degree)
    if not basis:
        return FormExpr.zero()
    terms = {}
    for _ in range(n_terms):
        p = rng.choice(basis)
        terms[p] = terms.get(p, 0) + rng.randint(-3, 3)
    return calc._normalized(terms)


# -- universal calculus dimensions ------------------------------------


def test_universal_single_point():
    calc = build_universal(1)
    assert calc.dimensions() == [1, 0]
    assert calc.max_degree == 1


def test_universal_two_points_alternating_paths():
    # paths must alternate 0101.. / 1010.., two per degree
    calc = build_universal(2)
    assert [calc.dimension(r) for r in range(7)] == [2] * 7
    assert calc.truncated  # never reaches dimension zero


def test_universal_three_points_one_forms():
    calc = build_universal(3)
    assert calc.dimension(1) == 6  # 3*2 ordered pairs
    # counting distinct-consecutive paths: N(N-1)^r
    assert [calc.dimension(r) for r in range(5)] == [3, 6, 12, 24, 48]


# -- reduction ---------------------------------------------------------


def test_fig1_dimensions_and_relation():
    calc = fig1_calculus()
    assert calc.dimensions() == [4, 4, 1, 0]
    assert calc.max_degree == 3
    assert calc.basis(2) == [(0, 1, 2), (0, 3, 2)]
    rels = calc.relations(2)
    assert len(rels) == 1
    assert rels[0] == FormExpr({(0, 1, 2): Fraction(1), (0, 3, 2): Fraction(1)})


def test_reduce_keeping_everything_matches_universal():
    uni = build_universal(3, degree_cap=4)
    red = reduce(uni, complete_arrows(3))
    assert red.dimensions() == uni.dimensions()
    assert all(not red.relations(r) for r in range(5))
    assert red.is_universal


def test_oriented_two_point_graph():
    calc = reduce(build_universal(2), {(0, 1)})
    assert calc.dimension(1) == 1
    assert calc.dimension(2) == 0
    assert not calc.relations(1)  # the d(e_10) ideal kills nothing admissible


def test_empty_graph_is_legal():
    calc = reduce(build_universal(3), set())
    assert calc.dimensions() == [3, 0]


def test_reduce_rejects_foreign_arrows():
    with pytest.raises(ValidationError):
        reduce(build_universal(3), {(0, 5)})


# -- product -----------------------------------------------------------


def test_edge_concatenation():
    calc = build_universal(4)
    e01 = FormExpr.from_path((0, 1))
    e12 = FormExpr.from_path((1, 2))
    assert calc.multiply(e01, e12) == FormExpr.from_path((0, 1, 2))


def test_mismatched_edges_multiply_to_zero():
    calc = build_universal(4)
    e01 = FormExpr.from_path((0, 1))
    e02 = FormExpr.from_path((0, 2))
    assert not calc.multiply(e01, e02)


def test_point_functions_are_orthogonal_idempotents():
    calc = build_universal(3)
    for i, j in itertools.product(range(3), repeat=2):
        prod = calc.multiply(FormExpr.from_path((i,)), FormExpr.from_path((j,)))
        expected = FormExpr.from_path((j,)) if i == j else FormExpr.zero()
        assert prod == expected


def test_associativity_on_random_expressions():
    rng = random.Random(7)
    for n in (2, 3, 4):
        calc = build_universal(n, degree_cap=6)
        for _ in range(25):
            a = random_expr(rng, calc, rng.randint(0, 2))
            b = random_expr(rng, calc, rng.randint(0, 2))
            c = random_expr(rng, calc, rng.randint(0, 2))
            left = calc.multiply(calc.multiply(a, b), c)
            right = calc.multiply(a, calc.multiply(b, c))
            assert left == right


# -- differential ------------------------------------------------------


def test_differential_of_point_function():
    calc = build_universal(3)
    d = calc.differential(FormExpr.from_path((0,)))
    expected = FormExpr(
        {(1, 0): 1, (2, 0): 1, (0, 1): -1, (0, 2): -1}
    )
    assert d == expected


def test_d_squared_zero_universal():
    calc = build_universal(4)
    d2 = calc.differential(calc.differential(FormExpr.from_path((0, 1))))
    assert not d2


def test_d_squared_zero_on_all_low_degree_basis_forms():
    rng = random.Random(3)
    graphs = [build_universal(n) for n in (2, 3, 4)]
    graphs += [reduce(build_universal(4), FIG1_ARROWS)]
    for _ in range(6):
        g = random_digraph(rng, rng.randint(2, 4))
        graphs.append(reduce(build_universal(g.n), g.arrows))
    for calc in graphs:
        top = min(4, len(calc.basis_by_degree) - 2)
        for r in range(top + 1):
            for path in calc.basis(r):
                d2 = calc.differential(calc.differential(FormExpr.from_path(path)))
                assert not d2, (calc.graph.arrows, path)


def test_fig1_reduced_differential_of_e01():
    calc = fig1_calculus()
    d = calc.differential(FormExpr.from_path((0, 1)))
    # d e_01 is congruent to e_012 modulo the relation e_012 + e_032 = 0
    target = calc._normalized({(0, 1, 2): 1})
    assert d == target
    assert d == FormExpr({(0, 3, 2): -1})


def test_graded_leibniz_random():
    rng = random.Random(11)
    for n in (2, 3, 4):
        calc = build_universal(n)
        for _ in range(25):
            da = rng.randint(0, 2)
            a = random_expr(rng, calc, da)
            b = random_expr(rng, calc, rng.randint(0, 2))
            lhs = calc.differential(calc.multiply(a, b))
            sign = 1 if da % 2 == 0 else -1
            rhs = calc.multiply(calc.differential(a), b) + sign * calc.multiply(
                a, calc.differential(b)
            )
            assert lhs == rhs


def test_unit_laws():
    rng = random.Random(5)
    for n in (2, 4):
        calc = build_universal(n)
        one = calc.unit()
        assert not calc.differential(one)
        for _ in range(10):
            a = random_expr(rng, calc, rng.randint(0, 3))
            assert calc.multiply(one, a) == a
            assert calc.multiply(a, one) == a


# -- function differentials --------------------------------------------


def test_constant_function_has_zero_differential():
    calc = build_universal(4)
    assert not calc.function_differential([5, 5, 5, 5])


def test_two_point_function_differential():
    calc = build_universal(2)
    df = calc.function_differential([0, 1])
    assert df == FormExpr({(0, 1): 1, (1, 0): -1})


def test_fig1_indicator_function_differential():
    calc = fig1_calculus()
    f = [0, 0, 1, 0]  # indicator of vertex 2 (paper's point 3)
    assert calc.function_differential(f) == FormExpr({(1, 2): 1, (3, 2): 1})


def test_function_differential_agrees_with_differential():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 4)
        g = random_digraph(rng, n)
        calc = reduce(build_universal(n), g.arrows)
        f = [rng.randint(-4, 4) for _ in range(n)]
        as_expr = FormExpr({(i,): f[i] for i in range(n) if f[i]})
        assert calc.function_differential(f) == calc.differential(as_expr)


# -- quotient soundness -------------------------------------------------


def test_relations_are_killed_by_products_and_d():
    rng = random.Random(17)
    calcs = [fig1_calculus()]
    for _ in range(8):
        g = random_digraph(rng, rng.randint(3, 4))
        calcs.append(reduce(build_universal(g.n), g.arrows))
    for calc in calcs:
        for r in range(len(calc.relations_by_degree)):
            for rel in calc.relations(r):
                # the representative itself normalizes to zero
                assert not calc._normalized(dict(rel.terms))
                if r + 1 < len(calc.basis_by_degree):
                    assert not calc.differential(rel)
                for arrow in sorted(calc.graph.arrows)[:3]:
                    e = FormExpr.from_path(arrow)
                    if r + 1 < len(calc.basis_by_degree):
                        assert not calc.multiply(rel, e)
                        assert not calc.multiply(e, rel)


def test_validity_enforced():
    calc = fig1_calculus()
    with pytest.raises(ValidationError):
        calc.multiply(FormExpr.from_path((1, 0)), FormExpr.from_path((0, 1)))


def test_module_level_wrappers():
    calc = fig1_calculus()
    a = FormExpr.from_path((0, 1))
    b = FormExpr.from_path((1, 2))
    assert multiply(a, b, calc) == calc.multiply(a, b)
    assert differential(a, calc) == calc.differential(a)
    assert function_differential([0, 1, 2, 3], calc) == calc.function_differential(
        [0, 1, 2, 3]
    )


def test_degree_cap_truncation_reported():
    calc = build_universal(6, degree_cap=3)
    assert calc.truncated
    with pytest.raises(ValidationError):
        calc.dimension(4)


# -- endpoint-block elimination -----------------------------------------


def bigrid_arrows(rows, cols):
    """Grid digraph with both orientations of every edge."""
    out = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                out += [(v, v + 1), (v + 1, v)]
            if r + 1 < rows:
                out += [(v, v + cols), (v + cols, v)]
    return out


def all_relation_rows(calc, r):
    """Every degree-r ideal generator, projected onto admissible paths."""
    n = calc.graph.n
    rows = []
    for i, j in sorted(complete_arrows(n) - calc.graph.arrows):
        mids = [
            k for k in range(n)
            if (i, k) in calc.graph.arrows and (k, j) in calc.graph.arrows
        ]
        if not mids:
            continue
        for p in range(r - 1):
            for P in calc.basis(p):
                for Q in calc.basis(r - 2 - p):
                    if P[-1] == i and Q[0] == j:
                        rows.append({P + (k,) + Q: 1 for k in mids})
    return rows


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.sets(st.sampled_from(sorted(complete_arrows(n))))
    )
))
def test_block_pivots_equal_one_elimination_over_all_rows(graph):
    n, arrows = graph
    calc = ReducedCalculus(Digraph.from_arrows(n, arrows), degree_cap=4)
    for r in range(len(calc.basis_by_degree)):
        assert calc._pivots_by_degree[r] == _rref(all_relation_rows(calc, r))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.sampled_from(sorted(complete_arrows(n)))),
        st.randoms(use_true_random=False),
    )
))
def test_multiply_and_differential_return_admissible_paths(case):
    n, arrows, rng = case
    calc = ReducedCalculus(Digraph.from_arrows(n, arrows), degree_cap=4)
    for _ in range(10):
        a = random_expr(rng, calc, rng.randint(0, 1))
        b = random_expr(rng, calc, rng.randint(0, 2))
        for result in (multiply(a, b, calc), differential(a, calc)):
            assert all(calc.is_admissible_path(p) for p in result.terms)


def test_bidirected_3x4_grid_dimensions():
    calc = ReducedCalculus(Digraph.from_arrows(12, bigrid_arrows(3, 4)), degree_cap=6)
    assert calc.dimensions() == [12, 34, 58, 82, 106, 130, 154]
    assert calc.truncated


def test_bidirected_3x3_grid_relation_counts():
    calc = ReducedCalculus(Digraph.from_arrows(9, bigrid_arrows(3, 3)), degree_cap=6)
    assert [len(calc.relations(r)) for r in range(7)] == [0, 0, 28, 136, 472, 1448, 4248]
    assert calc.dimensions() == [9, 24, 40, 56, 72, 88, 104]


def test_build_logs_each_degree_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="ncgeom"):
        ReducedCalculus(Digraph.from_arrows(4, FIG1_ARROWS))
    lines = [rec.getMessage() for rec in caplog.records]
    assert [line.split(", elimination ")[0] for line in lines] == [
        "degree 1: 4 paths, 0 relations, 0 endpoint blocks",
        "degree 2: 2 paths, 1 relations, 1 endpoint blocks",
        "degree 3: 0 paths, 0 relations, 0 endpoint blocks",
    ]
    assert all(line.endswith(" s") for line in lines)

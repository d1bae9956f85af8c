"""Tests for the Connes distance solver and its brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeom.distance import (
    RESIDUAL_TOL,
    DistanceProblem,
    DistanceSolution,
    commutator_norm,
    distance,
    distance_matrix,
    oracle_distance,
)
from ncgeom.errors import ValidationError
from ncgeom.matrix_rep import AdjacencyMatrix, double

TWO_POINT = np.array([[0.0, 1.0], [1.0, 0.0]])

FIG1 = np.array(
    [[0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0]], dtype=float
)

# Fig. 5 six-point grid fragment, 0-based arrows
FIG5 = np.zeros((6, 6))
for _arrow in [(0, 1), (1, 2), (0, 5), (1, 4), (2, 3), (5, 4), (4, 3)]:
    FIG5[_arrow] = 1.0


def chain_matrix(lengths):
    n = len(lengths) + 1
    d = np.zeros((n, n))
    for k, ell in enumerate(lengths):
        d[k, k + 1] = 1.0 / ell
    return d


def connected_pairs(d):
    from ncgeom.distance import _undirected_components

    labels = _undirected_components(d)
    n = d.shape[0]
    return [
        (i, j) for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j]
    ]


# -- commutator norm ------------------------------------------------------


def test_two_point_norm_is_difference():
    assert commutator_norm(TWO_POINT, [2.0, 5.5]) == pytest.approx(3.5, abs=1e-10)


def test_constant_function_norm_zero():
    assert commutator_norm(FIG1, [4.0] * 4) == 0.0


def test_weighted_chain_norm_formula():
    rng = np.random.default_rng(0)
    for _ in range(5):
        ells = rng.uniform(0.4, 2.0, size=4)
        d = chain_matrix(ells)
        f = rng.normal(size=5)
        expected = max(abs(f[k + 1] - f[k]) / ells[k] for k in range(4))
        assert commutator_norm(d, f) == pytest.approx(expected, rel=1e-9)
        assert commutator_norm(double(d), f) == pytest.approx(expected, rel=1e-9)


def test_doubled_norm_equals_undoubled_for_complex_f():
    # [D^T, f] = -[D, f]^T for real D and every f, so [D_hat, f_hat] has the
    # singular values of [D, f]; checked against the explicit 2n x 2n product
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        d = (rng.random((n, n)) < 0.5) * rng.uniform(0.2, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        block = double(d).block
        f_hat = np.diag(np.concatenate([f, f]))
        expected = np.linalg.svd(block @ f_hat - f_hat @ block, compute_uv=False)[0]
        assert commutator_norm(double(d), f) == pytest.approx(expected, rel=1e-12)
        assert commutator_norm(d, f) == pytest.approx(expected, rel=1e-12)


def test_norm_matches_svd_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = (rng.random((n, n)) < 0.5) * rng.uniform(0.2, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        f = rng.normal(size=n)
        c = d * (f[None, :] - f[:, None])
        expected = np.linalg.svd(c, compute_uv=False)[0]
        assert commutator_norm(d, f) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_chain_real_reduction_preserves_norm():
    # complex f and its cumulative-absolute real companion give equal norms
    rng = np.random.default_rng(2)
    ells = rng.uniform(0.5, 2.0, size=4)
    d = chain_matrix(ells)
    op = double(d)
    for _ in range(5):
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        big_f = np.zeros(5)
        for i in range(4):
            big_f[i + 1] = big_f[i] + abs(f[i + 1] - f[i])
        assert commutator_norm(op, f) == pytest.approx(
            commutator_norm(op, big_f), rel=1e-9
        )


# -- distance: worked examples --------------------------------------------


def test_example1_two_points():
    sol = distance(DistanceProblem(TWO_POINT, 0, 1))
    assert sol.value == pytest.approx(1.0, abs=1e-6)
    assert sol.constraint_norm <= 1.0 + 1e-9
    # the matrix is selfadjoint, so no doubling is applied
    doubled_sol = distance(DistanceProblem(double(TWO_POINT), 0, 1))
    assert doubled_sol.value == pytest.approx(sol.value, abs=1e-9)


def test_example2_chain_distances_sum_lengths():
    rng = np.random.default_rng(3)
    for _ in range(4):
        n = int(rng.integers(3, 7))
        ells = rng.uniform(0.3, 2.0, size=n - 1)
        d = chain_matrix(ells)
        i = int(rng.integers(0, n - 1))
        k = int(rng.integers(1, n - i))
        expected = ells[i : i + k].sum()
        sol = distance(DistanceProblem(d, i, i + k))
        assert sol.value == pytest.approx(expected, abs=1e-5)


def assert_brackets(sol, x):
    """value <= x <= upper_bound, up to a relative slack of 1e-9."""
    assert sol.value <= x * (1 + 1e-9)
    assert x <= sol.upper_bound * (1 + 1e-9)


def test_example3_fig1_is_euclidean():
    sol = distance(DistanceProblem(FIG1, 0, 2))
    assert_brackets(sol, math.sqrt(2.0))


def test_example4_fig5_inequalities():
    d36 = distance(DistanceProblem(FIG5, 2, 5))
    d14 = distance(DistanceProblem(FIG5, 0, 3))
    assert d36.value <= 2.0 + 1e-3
    assert d36.upper_bound <= 2.0 + 1e-6  # certified from the outer LP
    assert 2.0 < d14.value < math.sqrt(5.0)
    # Observed, not derived: the certified bracket of d14 contains this
    # value, which agrees with sqrt(7) - 1/2 to 12 digits.
    assert_brackets(d14, 2.145751311065)


def test_solution_invariants():
    sol = distance(DistanceProblem(FIG1, 0, 2))
    assert isinstance(sol, DistanceSolution)
    assert sol.constraint_norm <= 1.0 + 1e-9
    assert sol.value == pytest.approx(sol.optimizer[2] - sol.optimizer[0])
    assert sol.upper_bound >= sol.value - 1e-12
    assert sol.upper_bound - sol.value < 1e-7
    assert 0.0 <= sol.residual <= RESIDUAL_TOL
    assert sol.seconds > 0.0


def test_scale_and_shift_invariance():
    sol = distance(DistanceProblem(FIG1, 0, 2))
    f = sol.optimizer

    def ratio(g):
        c = FIG1 * (g[None, :] - g[:, None])
        return (g[2] - g[0]) / np.linalg.svd(c, compute_uv=False)[0]

    assert ratio(f) == pytest.approx(ratio(7.3 * f), rel=1e-12)
    c1 = FIG1 * ((f + 2.5)[None, :] - (f + 2.5)[:, None])
    c2 = FIG1 * (f[None, :] - f[:, None])
    assert np.array_equal(c1, c2)


def test_determinism_for_fixed_seed():
    a = distance(DistanceProblem(FIG5, 0, 3))
    b = distance(DistanceProblem(FIG5, 0, 3))
    assert a.value == b.value
    assert np.array_equal(a.optimizer, b.optimizer)


# -- distance matrix -------------------------------------------------------


def test_distance_matrix_two_points():
    m = distance_matrix(TWO_POINT)
    assert np.allclose(m, [[0.0, 1.0], [1.0, 0.0]], atol=1e-8)


def test_distance_matrix_three_chain():
    d = chain_matrix([1.0, 1.0])
    m = distance_matrix(d)
    assert m[0, 2] == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(m, m.T)
    assert np.all(np.diag(m) == 0)


def test_disconnected_components_give_infinity():
    d = np.zeros((4, 4))
    d[0, 1] = 1.0
    d[2, 3] = 1.0
    m = distance_matrix(d)
    assert math.isinf(m[0, 2]) and math.isinf(m[1, 3])
    assert m[0, 1] == pytest.approx(1.0, abs=1e-6)
    sol = distance(DistanceProblem(d, 0, 2))
    assert math.isinf(sol.value)
    assert sol.constraint_norm == 0.0  # component indicator has zero commutator


def test_triangle_inequality_random_graphs():
    rng = np.random.default_rng(4)
    for _ in range(6):
        n = int(rng.integers(3, 5))
        d = (rng.random((n, n)) < 0.6) * rng.uniform(0.4, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        m = distance_matrix(d)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if len({a, b, c}) == 3 and np.isfinite(m[a, c]):
                        assert m[a, c] <= m[a, b] + m[b, c] + 1e-6


def test_edge_addition_can_increase_distances():
    """Adding an arrow does NOT always shrink distances.

    Counterexample with unit weights on three points: completing the
    digraph from five arrows to all six raises every distance to
    sqrt(2/3).  The commutator norm is not entrywise monotone in the
    arrow set, so the feasible set does not simply shrink.
    """
    five = np.ones((3, 3)) - np.eye(3)
    five[2, 1] = 0.0
    complete = np.ones((3, 3)) - np.eye(3)
    d_five = distance(DistanceProblem(five, 0, 1)).value
    d_complete = distance(DistanceProblem(complete, 0, 1)).value
    assert d_complete == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-6)
    assert d_complete > d_five + 1e-3


# -- oracle -----------------------------------------------------------------


def test_oracle_example1():
    assert oracle_distance(DistanceProblem(TWO_POINT, 0, 1)) == pytest.approx(
        1.0, abs=1e-3
    )


def test_oracle_example3():
    assert oracle_distance(DistanceProblem(FIG1, 0, 2)) == pytest.approx(
        math.sqrt(2.0), abs=1e-3
    )


def test_oracle_example4_inequalities():
    assert oracle_distance(DistanceProblem(FIG5, 2, 5)) <= 2.0 + 1e-3
    d14 = oracle_distance(DistanceProblem(FIG5, 0, 3))
    assert 2.0 < d14 < math.sqrt(5.0)


def test_oracle_size_limit():
    d = np.zeros((7, 7))
    d[0, 1] = 1.0
    with pytest.raises(ValidationError):
        oracle_distance(DistanceProblem(d, 0, 1))


def test_solver_oracle_agreement_random():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 5:
        n = int(rng.integers(3, 6))
        d = (rng.random((n, n)) < 0.5) * rng.uniform(0.4, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        pairs = connected_pairs(d)
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(len(pairs)))]
        prob = DistanceProblem(d, int(i), int(j))
        assert distance(prob).value == pytest.approx(
            oracle_distance(prob), abs=2e-3
        )
        checked += 1


def test_complex_oracle_matches_real_on_small_graphs():
    # numerical support for the real-sufficiency reduction beyond chains
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 3:
        d = (rng.random((3, 3)) < 0.7) * rng.uniform(0.4, 2.0, size=(3, 3))
        np.fill_diagonal(d, 0.0)
        if (0, 2) not in connected_pairs(d):
            continue
        real = oracle_distance(DistanceProblem(d, 0, 2))
        cplx = oracle_distance(DistanceProblem(d, 0, 2), complex_functions=True)
        assert cplx == pytest.approx(real, abs=2e-3)
        checked += 1


# -- validation --------------------------------------------------------------


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", [np.asarray, double, AdjacencyMatrix])
def test_complex_operator_rejected_in_every_form(form):
    # no form may keep only the real part, as numpy does with a ComplexWarning
    d = np.array([[0, 2 + 1j], [1, 0]])
    with pytest.raises(ValidationError):
        DistanceProblem(form(d), 0, 1)
    with pytest.raises(ValidationError):
        commutator_norm(form(d), [0.0, 1.0])


def test_problem_validation():
    with pytest.raises(ValidationError):
        DistanceProblem(TWO_POINT, 0, 0)
    with pytest.raises(ValidationError):
        DistanceProblem(TWO_POINT, 0, 5)
    with pytest.raises(ValidationError):
        commutator_norm(TWO_POINT, [1.0, 2.0, 3.0])


# -- certified primal-dual solver -------------------------------------------


def grid_matrix(k):
    """Directed k x k grid, unit arrows to the right and downwards."""
    d = np.zeros((k * k, k * k))
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                d[v, v + 1] = 1.0
            if r + 1 < k:
                d[v, v + k] = 1.0
    return d


def assert_certified(sol, d):
    assert sol.status == "certified"
    assert sol.newton_steps > 0
    assert sol.value <= sol.upper_bound + 1e-12
    assert sol.upper_bound - sol.value <= 1e-6 * (1.0 + sol.upper_bound)
    c = d * (sol.optimizer[None, :] - sol.optimizer[:, None])
    assert np.linalg.norm(c, 2) <= 1.0 + 1e-9


def test_grid6_corner_certified():
    d = grid_matrix(6)
    sol = distance(DistanceProblem(d, 0, 35))
    assert sol.value >= 5.8268
    assert_certified(sol, d)


def test_random16_certified_with_exact_norm():
    rng = np.random.default_rng(16)
    while True:
        d = (rng.random((16, 16)) < 0.25) * rng.uniform(0.4, 2.0, size=(16, 16))
        np.fill_diagonal(d, 0.0)
        if (0, 15) in connected_pairs(d):
            break
    sol = distance(DistanceProblem(d, 0, 15))
    assert_certified(sol, d)
    c = d * (sol.optimizer[None, :] - sol.optimizer[:, None])
    assert commutator_norm(d, sol.optimizer) == pytest.approx(
        np.linalg.svd(c, compute_uv=False)[0], rel=1e-13
    )


def test_weighted_chain32_sums_lengths():
    ells = np.random.default_rng(32).uniform(0.3, 2.0, size=31)
    d = chain_matrix(ells)
    sol = distance(DistanceProblem(d, 0, 31))
    assert sol.value == pytest.approx(ells.sum(), abs=1e-6)
    assert_certified(sol, d)


def test_relative_precision_at_any_length_scale():
    for scale in (1e-4, 1e4):
        sol = distance(DistanceProblem(FIG1 * scale, 0, 2))
        assert sol.value * scale == pytest.approx(math.sqrt(2.0), rel=1e-8)
        assert sol.upper_bound - sol.value <= 1e-9 * sol.upper_bound


def test_grid8_corner_certified():
    d = grid_matrix(8)
    assert_certified(distance(DistanceProblem(d, 0, 63)), d)


def test_disconnected_solution_record():
    d = np.zeros((4, 4))
    d[0, 1] = 1.0
    d[2, 3] = 1.0
    sol = distance(DistanceProblem(d, 1, 3))
    assert sol.status == "infinite"
    assert math.isinf(sol.upper_bound) and sol.newton_steps == 0
    assert sol.residual == 0.0 and sol.seconds == 0.0


def test_stalled_solve_raises(monkeypatch):
    import ncgeom.distance as solver
    from ncgeom.errors import NumericError

    monkeypatch.setattr(solver, "MAX_NEWTON_STEPS", 3)
    with pytest.raises(NumericError):
        distance(DistanceProblem(FIG1, 0, 2))


def random_positive_definite(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.1 * np.eye(dim)


def test_schur_matrix_matches_definitions():
    from ncgeom.distance import _lmi, _lmi_adjoint, _schur

    rng = np.random.default_rng(7)
    n = 5
    d = (rng.random((n, n)) < 0.6) * rng.uniform(0.4, 2.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    b = [_lmi(d, np.eye(n)[k], identity=0.0) for k in range(n)]
    # two different positive definite matrices X and S^-1
    x = random_positive_definite(rng, 2 * n)
    s_inv = random_positive_definite(rng, 2 * n)
    schur = [[np.trace(x @ bk @ s_inv @ bl) for bl in b] for bk in b]
    assert np.allclose(_schur(d, x, s_inv), schur, rtol=1e-12, atol=1e-12)
    assert np.allclose(_lmi_adjoint(d, x), [np.trace(x @ bk) for bk in b], rtol=1e-12, atol=1e-12)
    # X = S^-1 = M(f)^-1: the gradient and Hessian of -log det M
    f = rng.normal(size=n)
    f /= 2.0 * commutator_norm(d, f)
    w = np.linalg.inv(_lmi(d, f))
    grad = [np.trace(w @ bk) for bk in b]
    hess = [[np.trace(w @ bk @ w @ bl) for bl in b] for bk in b]
    assert np.allclose(_lmi_adjoint(d, w), grad, rtol=1e-12, atol=1e-12)
    assert np.allclose(_schur(d, w, w), hess, rtol=1e-12, atol=1e-12)


def test_repair_meets_the_constraints_and_keeps_the_trace():
    from ncgeom.distance import _lmi_adjoint, _repaired

    rng = np.random.default_rng(9)
    n = 6
    d = (rng.random((n, n)) < 0.5) * 10.0 ** rng.uniform(-2, 2, size=(n, n))
    d += np.diag(np.ones(n - 1), 1)  # a chain keeps D connected
    np.fill_diagonal(d, 0.0)
    x = random_positive_definite(rng, 2 * n)
    target = rng.normal(size=n - 1)
    cert = _repaired(d, x, target - _lmi_adjoint(d, x)[1:])
    assert np.allclose(_lmi_adjoint(d, cert)[1:], target, rtol=0, atol=1e-10)
    assert np.array_equal(np.diag(cert), np.diag(x))


def test_lengths_over_four_decades_are_certified():
    # the iterates stall about 1e-9 off the constraints here, so only the
    # repaired certificate meets RESIDUAL_TOL
    d = np.zeros((6, 6))
    for (i, j), w in {(0, 1): 1.0, (0, 2): 1e2, (0, 3): 1.0, (0, 5): 1e-2,
                      (1, 3): 1.0, (2, 4): 1e-2}.items():
        d[i, j] = d[j, i] = w
    sol = distance(DistanceProblem(d, 4, 5))
    assert sol.status == "certified"
    assert sol.value <= sol.upper_bound <= sol.value * (1 + 1e-9)
    assert sol.residual <= RESIDUAL_TOL
    assert commutator_norm(d, sol.optimizer) <= 1.0 + 1e-9


def bidirected(d):
    return d + d.T


@pytest.mark.parametrize(
    "d, p, q, cap",
    [
        (TWO_POINT, 0, 1, 15),
        (chain_matrix([1.0] * 5), 0, 5, 15),
        (FIG1, 0, 2, 15),
        (bidirected(chain_matrix([1.0] * 7)), 0, 7, 30),
    ],
    ids=["two_point", "chain6", "fig1", "bidirected_chain8"],
)
def test_iteration_counts_stay_low(d, p, q, cap):
    # Observed, not derived: 6, 6, 6 and 17 iterations.
    sol = distance(DistanceProblem(d, p, q))
    assert 0 < sol.newton_steps <= cap


@st.composite
def weighted_digraphs(draw):
    """2-8 points, lengths from 1e-2 to 1e2, symmetric or directed."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    symmetric = draw(st.booleans())
    if symmetric:
        pairs = [(i, j) for i, j in pairs if i < j]
    arrows = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    lengths = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    d = np.zeros((n, n))
    for i, j in arrows:
        d[i, j] = 1.0 / draw(lengths)
        if symmetric:
            d[j, i] = d[i, j]
    return d


@settings(max_examples=60, deadline=None)
@given(weighted_digraphs())
def test_every_connected_pair_is_certified(d):
    for p, q in connected_pairs(d):
        sol = distance(DistanceProblem(d, p, q))
        assert sol.status == "certified"
        assert sol.value <= sol.upper_bound
        assert sol.upper_bound - sol.value <= 1e-9 * sol.upper_bound
        assert sol.residual <= RESIDUAL_TOL
        assert commutator_norm(d, sol.optimizer) <= 1.0 + 1e-9

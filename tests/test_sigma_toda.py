"""Tests for the Hodge star, sigma-model machinery, and Toda evolution."""

import math

import numpy as np
import pytest

from ncgeom.errors import NumericError, ValidationError
from ncgeom.lattice import LatticeField, LatticeOneForm, exterior_derivative
from ncgeom.sigma_toda import (
    BOUNDARIES,
    ChiLadder,
    HodgeStar,
    TodaState,
    covariant_derivative,
    current_ladder,
    d_one_form,
    discrete_continuum_orders,
    exp_field_from_slices,
    field_residual,
    invert_star_d,
    maurer_cartan,
    potential,
    star,
    star_product,
    toda_energy,
    toda_force,
    toda_integrate,
    toda_run_discrete,
    toda_step_discrete,
    two_dim_spec,
)


def random_one_form(rng, spec, matrix_dim=None):
    shape = spec.shape if matrix_dim is None else spec.shape + (matrix_dim, matrix_dim)
    return LatticeOneForm(
        (
            LatticeField(spec, rng.normal(size=shape)),
            LatticeField(spec, rng.normal(size=shape)),
        )
    )


def gaussian_bump(n_sites, amp=0.3, width=0.5, center=None):
    k = np.arange(n_sites)
    center = (n_sites - 1) / 2 if center is None else center
    return amp * np.exp(-width * (k - center) ** 2)


def toda_solution_field(n_sites=16, steps=50, l0=0.5, l1=1.0, amp=0.3):
    q0 = gaussian_bump(n_sites, amp=amp)
    run = toda_run_discrete(TodaState(q0, q0, l0, l1), steps)
    return exp_field_from_slices(run, l0, l1)


# -- star ---------------------------------------------------------------


def test_star_on_basis_forms_with_eta_defaults():
    spec = two_dim_spec(1.0, 1.0, (0, 4), (0, 4))
    one = LatticeField.constant(spec, 1.0)
    zero = LatticeField.constant(spec, 0.0)
    dt = LatticeOneForm((one, zero))
    dx = LatticeOneForm((zero, one))
    sdt = star(dt)
    assert np.all(sdt.components[0].values == 0)
    assert np.all(sdt.components[1].values == 1.0)  # star dt = dx
    sdx = star(dx)
    assert np.all(sdx.components[0].values == 1.0)  # star dx = dt
    assert np.all(sdx.components[1].values == 0)


def test_star_star_is_backshift():
    rng = np.random.default_rng(0)
    spec = two_dim_spec(0.5, 2.0, (0, 7), (0, 7))
    w = random_one_form(rng, spec)
    ww = star(star(w))
    shifted = LatticeOneForm(
        tuple(c.shift(0, -1).shift(1, -1) for c in w.components)
    )
    assert (ww - shifted).max_abs() == 0.0


def test_star_symmetry_axiom_scalar_forms():
    rng = np.random.default_rng(1)
    spec = two_dim_spec(1.0, 1.0, (0, 6), (0, 6))
    h = HodgeStar(c0=1.5, c1=-0.5)
    for _ in range(5):
        w = random_one_form(rng, spec)
        u = random_one_form(rng, spec)
        assert (star_product(w, u, h) - star_product(u, w, h)).max_abs() < 1e-12


def test_star_covariance():
    # star(w f) = f star w with the coefficient commuted to the right
    rng = np.random.default_rng(2)
    spec = two_dim_spec(1.0, 1.0, (0, 6), (0, 6))
    w = random_one_form(rng, spec)
    f = LatticeField(spec, rng.normal(size=(6, 6)))
    wf = LatticeOneForm(
        (w.components[0] * f.shift(0, 1), w.components[1] * f.shift(1, 1))
    )
    lhs = star(wf)
    sw = star(w)
    rhs = LatticeOneForm((f * sw.components[0], f * sw.components[1]))
    assert (lhs - rhs).max_abs() == 0.0


def test_star_rejects_zero_coefficients():
    with pytest.raises(ValidationError):
        HodgeStar(c0=0.0)
    spec = two_dim_spec(1.0, 1.0, (0, 3), (0, 3))
    with pytest.raises(ValidationError):
        HodgeStar(c1=LatticeField.constant(spec, 0.0))


def test_field_valued_star_coefficients():
    rng = np.random.default_rng(3)
    spec = two_dim_spec(1.0, 1.0, (0, 8), (0, 8))
    c0 = LatticeField(spec, 1.0 + 0.5 * rng.random((8, 8)))
    c1 = LatticeField(spec, -1.0 - 0.5 * rng.random((8, 8)))
    h = HodgeStar(c0=c0, c1=c1)
    assert not h.is_constant
    w = random_one_form(rng, spec)
    u = random_one_form(rng, spec)
    assert (star_product(w, u, h) - star_product(u, w, h)).max_abs() < 1e-12
    with pytest.raises(ValidationError):
        invert_star_d(w, h)


# -- gauge field ---------------------------------------------------------


def test_constant_source_has_zero_connection():
    spec = two_dim_spec(1.0, 1.0, (0, 5), (0, 5))
    a = LatticeField.constant(spec, 2.5)
    g = maurer_cartan(a)
    assert g.one_form.max_abs() == 0.0
    assert field_residual(g.one_form).max_abs() == 0.0


def test_scalar_connection_matches_exponential_formula():
    l0, l1 = 0.5, 0.75
    rng = np.random.default_rng(4)
    q = rng.normal(size=(6, 6)) * 0.4
    spec = two_dim_spec(l0, l1, (0, 6), (0, 6))
    a = LatticeField(spec, np.exp(-q))
    g = maurer_cartan(a)
    a0 = (np.exp(q[:-1, :] - q[1:, :]) - 1.0) / l0
    a1 = (np.exp(q[:, :-1] - q[:, 1:]) - 1.0) / l1
    win = g.one_form.spec.window
    sl = tuple(slice(lo, hi) for lo, hi in win)
    assert np.allclose(g.one_form.components[0].values, a0[sl], atol=1e-14)
    assert np.allclose(g.one_form.components[1].values, a1[sl], atol=1e-14)


def test_block_diagonal_matrix_source():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(5, 5)) * 0.3
    r = rng.normal(size=(5, 5)) * 0.3
    spec = two_dim_spec(1.0, 1.0, (0, 5), (0, 5))
    mat = np.zeros((5, 5, 2, 2))
    mat[..., 0, 0] = np.exp(-q)
    mat[..., 1, 1] = np.exp(-r)
    g = maurer_cartan(LatticeField(spec, mat))
    gq = maurer_cartan(LatticeField(spec, np.exp(-q)))
    gr = maurer_cartan(LatticeField(spec, np.exp(-r)))
    for mu in range(2):
        blk = g.one_form.components[mu].values
        assert np.allclose(blk[..., 0, 0], gq.one_form.components[mu].values)
        assert np.allclose(blk[..., 1, 1], gr.one_form.components[mu].values)
        assert np.all(blk[..., 0, 1] == 0) and np.all(blk[..., 1, 0] == 0)


def test_flatness_holds_for_generic_sources():
    rng = np.random.default_rng(6)
    spec = two_dim_spec(0.5, 0.5, (0, 8), (0, 8))
    a = LatticeField(spec, np.exp(rng.normal(size=(8, 8)) * 0.5))
    assert maurer_cartan(a).flatness_residual < 1e-12
    mats = np.eye(3) + 0.2 * rng.normal(size=(8, 8, 3, 3))
    assert maurer_cartan(LatticeField(spec, mats)).flatness_residual < 1e-12


def test_singular_source_rejected():
    spec = two_dim_spec(1.0, 1.0, (0, 2), (0, 2))
    vals = np.ones((2, 2))
    vals[1, 0] = 0.0
    with pytest.raises(ValidationError, match=r"\(1, 0\)"):
        maurer_cartan(LatticeField(spec, vals))


def test_field_residual_zero_on_solution_nonzero_otherwise():
    a = toda_solution_field()
    g = maurer_cartan(a)
    assert field_residual(g.one_form).max_abs() < 1e-12
    rng = np.random.default_rng(7)
    bad = LatticeField(
        two_dim_spec(0.5, 1.0, (0, 8), (0, 8)),
        np.exp(-rng.normal(size=(8, 8)) * 0.5),
    )
    assert field_residual(maurer_cartan(bad).one_form).max_abs() > 1e-3


# -- potential (closed => exact) -----------------------------------------


def test_potential_roundtrip_exact_on_integer_data():
    rng = np.random.default_rng(8)
    spec = two_dim_spec(1.0, 1.0, (0, 11), (0, 11))
    for _ in range(10):
        g = LatticeField(spec, rng.integers(-7, 8, size=(11, 11)).astype(float))
        w = exterior_derivative(g)
        f = potential(w)
        assert (exterior_derivative(f) - w).max_abs() == 0.0
        gr = g.restricted(f.spec.window)
        assert np.max(np.abs(f.values - (gr.values - gr.values[0, 0]))) == 0.0


def test_potential_of_dt():
    spec = two_dim_spec(0.5, 1.0, (2, 8), (1, 7))
    one = LatticeField.constant(spec, 1.0)
    zero = LatticeField.constant(spec, 0.0)
    f = potential(LatticeOneForm((one, zero)))
    t = LatticeField.coordinate(f.spec, 0)
    assert np.max(np.abs(f.values - (t.values - t.values[0, 0]))) == 0.0


def test_potential_path_independence():
    rng = np.random.default_rng(9)
    spec = two_dim_spec(1.0, 1.0, (0, 10), (0, 10))
    for _ in range(10):
        g = LatticeField(spec, rng.integers(-5, 6, size=(10, 10)).astype(float))
        w = exterior_derivative(g)
        f1 = potential(w, order="t-first")
        f2 = potential(w, order="x-first")
        assert np.max(np.abs(f1.values - f2.values)) == 0.0


def test_potential_rejects_non_closed_forms():
    rng = np.random.default_rng(10)
    spec = two_dim_spec(1.0, 1.0, (0, 6), (0, 6))
    w = random_one_form(rng, spec)
    with pytest.raises(NumericError, match="residual"):
        potential(w)


# -- invert_star_d ---------------------------------------------------------


def test_invert_star_d_roundtrip():
    rng = np.random.default_rng(11)
    spec = two_dim_spec(1.0, 1.0, (0, 12), (0, 12))
    g = LatticeField(spec, rng.integers(-5, 6, size=(12, 12)).astype(float))
    j = star(exterior_derivative(g))
    chi = invert_star_d(j)
    # chi differs from g by a constant on the common window
    gr = g.restricted(chi.spec.window)
    diff = chi.values - gr.values
    assert np.max(np.abs(diff - diff[0, 0])) < 1e-12


def test_invert_star_d_zero_current():
    spec = two_dim_spec(1.0, 1.0, (0, 6), (0, 6))
    zero = LatticeField.constant(spec, 0.0)
    chi = invert_star_d(LatticeOneForm((zero, zero)))
    assert chi.max_abs() == 0.0


def test_invert_star_d_on_toda_current():
    a = toda_solution_field()
    g = maurer_cartan(a)
    chi1 = invert_star_d(g.one_form)
    back = star(exterior_derivative(chi1))
    win = back.spec.window
    restr = LatticeOneForm(tuple(c.restricted(win) for c in g.one_form.components))
    assert (back - restr).max_abs() < 1e-9


# -- ladder ---------------------------------------------------------------


def test_first_current_is_the_connection():
    a = toda_solution_field(steps=20)
    ladder = current_ladder(a, m_max=1)
    A = maurer_cartan(a).one_form
    win = ladder.currents[0].spec.window
    diff = ladder.currents[0] - LatticeOneForm(
        tuple(c.restricted(win) for c in A.components)
    )
    assert diff.max_abs() == 0.0


def test_constant_source_gives_zero_ladder():
    spec = two_dim_spec(1.0, 1.0, (0, 14), (0, 14))
    a = LatticeField.constant(spec, 1.0)
    ladder = current_ladder(a, m_max=3)
    assert all(c.max_abs() == 0.0 for c in ladder.currents)
    assert all(r == 0.0 for r in ladder.residuals)


def test_ladder_conservation_on_toda_solution():
    a = toda_solution_field(n_sites=16, steps=50)
    ladder = current_ladder(a, m_max=3)
    assert ladder.note is None
    assert len(ladder.residuals) == 3
    for r in ladder.residuals:
        assert r < 1e-9


def test_matrix_ladder_conservation():
    q_run = toda_run_discrete(
        TodaState(gaussian_bump(12), gaussian_bump(12), 0.4, 1.0), 30
    )
    r_run = toda_run_discrete(
        TodaState(gaussian_bump(12, amp=0.2), gaussian_bump(12, amp=0.2), 0.4, 1.0), 30
    )
    vals = np.zeros(q_run.shape + (2, 2))
    vals[..., 0, 0] = np.exp(-q_run)
    vals[..., 1, 1] = np.exp(-r_run)
    a = LatticeField(two_dim_spec(0.4, 1.0, (0, 32), (0, 12)), vals)
    ladder = current_ladder(a, m_max=2)
    for r in ladder.residuals:
        assert r < 1e-9


def test_ladder_window_exhaustion_gives_partial_result():
    a = toda_solution_field(n_sites=6, steps=4, amp=0.1)
    ladder = current_ladder(a, m_max=5)
    assert ladder.note is not None
    assert 0 < ladder.depth < 5


def test_ladder_rejects_non_solutions():
    rng = np.random.default_rng(12)
    spec = two_dim_spec(0.5, 1.0, (0, 8), (0, 8))
    a = LatticeField(spec, np.exp(-rng.normal(size=(8, 8)) * 0.5))
    with pytest.raises(NumericError, match="field equation"):
        current_ladder(a, m_max=2)


def test_covariant_derivative_of_identity_is_connection():
    a = toda_solution_field(steps=10)
    A = maurer_cartan(a).one_form
    chi0 = LatticeField.identity(a.spec)
    d = covariant_derivative(chi0, A)
    assert (d - A).max_abs() == 0.0


# -- discrete Toda ---------------------------------------------------------


def test_uniform_state_is_fixed_point():
    # the all-zero state matches the fixed walls and never moves
    state = TodaState(np.zeros(6), np.zeros(6), 0.3, 1.0)
    assert np.max(np.abs(toda_run_discrete(state, 12))) == 0.0
    # a nonzero uniform value is translation invariant away from the walls:
    # interior exponentials all equal 1, so one step changes nothing there
    uniform = np.full(10, 0.7)
    nxt = toda_step_discrete(TodaState(uniform, uniform, 0.3, 1.0)).q_curr
    assert np.max(np.abs(nxt[1:-1] - 0.7)) == 0.0


def test_single_site_bump_explicit_step():
    amp, m, n_sites = 0.1, 4, 9
    q = np.zeros(n_sites)
    q[m] = amp
    nxt = toda_step_discrete(TodaState(q, q, 1.0, 1.0)).q_curr
    expected = np.zeros(n_sites)
    expected[m] = amp - math.log(1.0 - math.exp(-amp) + math.exp(amp))
    expected[m - 1] = amp  # rhs = e^{-amp}, so q_next = -log(e^{-amp})
    expected[m + 1] = -math.log(2.0 - math.exp(amp))
    assert np.allclose(nxt, expected, atol=1e-15)


def test_positivity_violation_reports_site():
    q = np.zeros(7)
    q[3] = 3.0
    with pytest.raises(NumericError, match="site"):
        toda_step_discrete(TodaState(q, q, 1.0, 1.0))


def test_discrete_run_satisfies_field_equation():
    a = toda_solution_field(n_sites=16, steps=50)
    assert field_residual(maurer_cartan(a).one_form).max_abs() < 1e-12


# -- continuum Toda ----------------------------------------------------------


def test_equilibrium_stays_fixed():
    traj = toda_integrate(np.zeros(6), np.zeros(6), 1.0, 1e-2)
    assert np.max(np.abs(traj.q)) == 0.0
    assert np.max(np.abs(traj.p)) == 0.0


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_momentum_conserved(boundary):
    q0 = gaussian_bump(8, amp=0.5)
    p0 = 0.3 * np.sin(np.arange(8))
    traj = toda_integrate(q0, p0, 2.0, 1e-3, boundary=boundary)
    drift = np.max(np.abs(traj.momenta() - traj.momenta()[0]))
    assert drift < 1e-13


def test_energy_nearly_conserved():
    q0 = gaussian_bump(8, amp=0.5)
    p0 = 0.2 * np.cos(np.arange(8))
    traj = toda_integrate(q0, p0, 2.0, 1e-3, boundary="periodic")
    energies = traj.energies()
    assert np.max(np.abs(energies - energies[0])) < 1e-10


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_force_is_minus_energy_gradient(boundary):
    q = 0.5 * np.random.default_rng(8).normal(size=6)
    l1, eps = 1.3, 1e-6
    grad = np.empty(6)
    for k in range(6):
        step = np.zeros(6)
        step[k] = eps
        up = toda_energy(q + step, np.zeros(6), l1, boundary)
        down = toda_energy(q - step, np.zeros(6), l1, boundary)
        grad[k] = (up - down) / (2 * eps)
    assert np.max(np.abs(toda_force(q, l1, boundary) + grad)) < 1e-8


def test_integrator_is_fourth_order():
    q0 = gaussian_bump(6, amp=0.8)
    p0 = np.zeros(6)
    ref = toda_integrate(q0, p0, 1.0, 1e-4, boundary="fixed")
    errs = []
    for h in (0.02, 0.01):
        traj = toda_integrate(q0, p0, 1.0, h, boundary="fixed")
        errs.append(np.max(np.abs(traj.q[-1] - ref.q[-1])))
    order = math.log2(errs[0] / errs[1])
    assert order == pytest.approx(4.0, abs=0.5)


def test_discrete_continuum_convergence_order_one():
    q0 = gaussian_bump(8, amp=0.4, width=0.7)
    p0 = 0.2 * np.sin(2 * np.pi * np.arange(8) / 8)
    errors, orders = discrete_continuum_orders(q0, p0, t_final=1.0)
    assert errors[0] > errors[-1]
    for order in orders:
        assert order == pytest.approx(1.0, abs=0.2)


def test_toda_energy_definition():
    q = np.array([0.1, -0.2, 0.3])
    p = np.array([1.0, 0.0, -1.0])
    expected = 0.5 * 2.0 + math.exp(0.1 + 0.2) + math.exp(-0.2 - 0.3)
    assert toda_energy(q, p, 1.0, "open") == pytest.approx(expected)

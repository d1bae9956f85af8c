"""Tests for the Hodge star, sigma-model machinery, and Toda evolution."""

import math

import numpy as np
import pytest

from ncgeom.errors import NumericError, ValidationError
from ncgeom.lattice import (
    LatticeField,
    LatticeOneForm,
    exterior_derivative,
    forward_derivative,
)
from ncgeom.sigma_toda import (
    BOUNDARIES,
    CLOSEDNESS_TOL,
    FLATNESS_TOL,
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
    one_form_product,
    potential,
    star,
    toda_force,
    toda_integrate,
    toda_run_discrete,
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


def energy(q, p, l1, boundary="fixed"):
    """Energy of one chain state: a run of length 0 keeps only the initial row."""
    return toda_integrate(q, p, 0.0, 1.0, l1=l1, boundary=boundary).energies()[0]


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
        wu = one_form_product(w, star(u, h))
        uw = one_form_product(u, star(w, h))
        assert (wu - uw).max_abs() < 1e-12


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
    for bad in (0.0, math.nan, math.inf, -math.inf, True, "1"):
        with pytest.raises(ValidationError):
            HodgeStar(c0=bad)
        with pytest.raises(ValidationError):
            HodgeStar(c1=bad)


def test_star_coefficients_are_floats():
    h = HodgeStar(c0=2, c1=np.float32(-0.5))
    assert (type(h.c0), type(h.c1)) == (float, float)
    assert (h.c0, h.c1) == (2.0, -0.5)


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


def test_flatness_past_the_tolerance_raises(monkeypatch):
    import ncgeom.sigma_toda as sigma

    a = toda_solution_field()
    flat = maurer_cartan(a).flatness_residual
    assert flat > 0.0
    monkeypatch.setattr(sigma, "FLATNESS_TOL", flat / 2)
    with pytest.raises(NumericError, match="flatness residual"):
        maurer_cartan(a)


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


def test_potential_rejects_non_closed_forms():
    rng = np.random.default_rng(10)
    spec = two_dim_spec(1.0, 1.0, (0, 6), (0, 6))
    w = random_one_form(rng, spec)
    with pytest.raises(NumericError, match="residual"):
        potential(w)


def test_potential_rejects_a_small_curl_that_adds_up():
    # curl 9e-10 along row 0 passes a pointwise bound of 1e-9, but the path
    # sums give a "primitive" whose time differences miss w by 199 * 9e-10
    spec = two_dim_spec(1.0, 1.0, (0, 4), (0, 200))
    w1 = np.zeros((4, 200))
    w1[1] = 9e-10
    w = LatticeOneForm((LatticeField.constant(spec, 0.0), LatticeField(spec, w1)))
    assert d_one_form(w).max_abs() < CLOSEDNESS_TOL
    with pytest.raises(NumericError, match="not closed"):
        potential(w)


def test_potential_certificate_fails_on_nan():
    # d chi - w is nan in the space component only; max(0.0, nan) is 0.0
    spec = two_dim_spec(1.0, 1.0, (0, 6), (0, 6))
    w1 = np.zeros((6, 6))
    w1[2, 3] = np.nan
    w = LatticeOneForm((LatticeField.constant(spec, 0.0), LatticeField(spec, w1)))
    with pytest.raises(NumericError, match="not closed"):
        potential(w)


# -- invert_star_d ---------------------------------------------------------


def test_invert_star_d_roundtrip():
    rng = np.random.default_rng(11)
    spec = two_dim_spec(1.0, 1.0, (0, 12), (0, 12))
    g = LatticeField(spec, rng.integers(-5, 6, size=(12, 12)).astype(float))
    for h in (HodgeStar(), HodgeStar(c0=1.5, c1=-0.5)):
        j = star(exterior_derivative(g), h)
        chi = invert_star_d(j, h)
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
    for n_sites, steps, depth in [(6, 4, 2), (5, 3, 1), (10, 8, 4)]:
        a = toda_solution_field(n_sites=n_sites, steps=steps, amp=0.1)
        ladder = current_ladder(a, m_max=5)
        assert ladder.depth == len(ladder.chis) == len(ladder.residuals) == depth
        assert ladder.note.startswith(f"window exhausted at level {depth + 1}: ")


def test_ladder_needs_a_window_for_the_field_equation():
    with pytest.raises(ValidationError, match="empty intersection"):
        current_ladder(toda_solution_field(n_sites=3, steps=4, amp=0.1))


def test_ladder_checks_closedness_before_inverting():
    # star scaled by 1e-3 keeps the field equation but divides the curl of
    # the inverted current by c0 c1 = -1e-6
    a = toda_solution_field(n_sites=16, steps=50)
    with pytest.raises(NumericError, match=r"J\^\(2\) is not conserved"):
        current_ladder(a, HodgeStar(1e-3, -1e-3))


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


def reference_ladder(a, h=HodgeStar(), m_max=3):
    """The ladder built from the LatticeField primitives, one lattice object
    per operation; `current_ladder` must reproduce it byte for byte."""
    l0, l1 = a.spec.spacings
    ainv = a.inverse()
    A = LatticeOneForm(tuple(ainv * forward_derivative(a, mu) for mu in (0, 1)))
    assert (d_one_form(A) + one_form_product(A, A)).max_abs() <= FLATNESS_TOL
    chis = [LatticeField.identity(a.spec, a.matrix_dim)]
    currents, residuals = [A], [d_one_form(star(A, h)).max_abs()]
    for m in range(2, m_max + 1):
        J0, J1 = currents[-1].components
        try:
            w = LatticeOneForm((J1.shift(0, 1) / h.c0, J0.shift(1, 1) / -h.c1))
            w0, w1 = (c.values for c in w.components)
            t_sums = np.zeros_like(w0[:, 0])
            t_sums[1:] = np.cumsum(w0[:-1, 0], axis=0)
            x_sums = np.zeros_like(w1)
            x_sums[:, 1:] = np.cumsum(w1[:, :-1], axis=1)
            chi = LatticeField(w.spec, l0 * t_sums[:, None] + l1 * x_sums)
            J = LatticeOneForm(tuple(
                forward_derivative(chi, mu) + A.components[mu] * chi.shift(mu, 1)
                for mu in (0, 1)
            ))
            resid = d_one_form(star(J, h)).max_abs()
        except ValidationError as exc:
            note = f"window exhausted at level {m}: {exc}"
            return ChiLadder(chis, currents, residuals, note)
        chis.append(chi)
        currents.append(J)
        residuals.append(resid)
    return ChiLadder(chis, currents, residuals)


def assert_same_bytes(got, want):
    assert got.spec == want.spec
    assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()  # signed zeros too


def matrix_source():
    bumps = [gaussian_bump(12, amp=amp) for amp in (0.3, 0.2)]
    runs = [toda_run_discrete(TodaState(q, q, 0.4, 1.0), 30) for q in bumps]
    vals = np.zeros(runs[0].shape + (2, 2))
    vals[..., 0, 0] = np.exp(-runs[0])
    vals[..., 1, 1] = np.exp(-runs[1])
    return LatticeField(two_dim_spec(0.4, 1.0, (0, 32), (0, 12)), vals)


def offset_source():
    """A Toda source on t in [3, 53), x in [-5, 11)."""
    q0 = gaussian_bump(16)
    run = toda_run_discrete(TodaState(q0, q0, 0.5, 1.0), 48)
    return LatticeField(two_dim_spec(0.5, 1.0, (3, 53), (-5, 11)), np.exp(-run))


@pytest.mark.parametrize(
    "source, h, m_max",
    [
        (lambda: toda_solution_field(n_sites=16, steps=50), HodgeStar(), 3),
        (matrix_source, HodgeStar(), 2),
        (lambda: toda_solution_field(n_sites=6, steps=4, amp=0.1), HodgeStar(), 5),
        (lambda: toda_solution_field(n_sites=16, steps=50), HodgeStar(2.0, -2.0), 3),
        (offset_source, HodgeStar(), 3),
        (matrix_source, HodgeStar(2.0, -2.0), 3),
    ],
    ids=[
        "bump16x50",
        "block_diagonal",
        "exhausted6x4",
        "star2",
        "offset_window",
        "block_diagonal_star2",
    ],
)
def test_ladder_matches_the_lattice_primitives_byte_for_byte(source, h, m_max):
    a = source()
    got, want = current_ladder(a, h, m_max), reference_ladder(a, h, m_max)
    assert got.note == want.note
    assert got.residuals == want.residuals
    assert len(got.chis) == len(want.chis) and len(got.currents) == len(want.currents)
    for g, w in zip(got.chis, want.chis):
        assert_same_bytes(g, w)
    for g, w in zip(got.currents, want.currents):
        for gc, wc in zip(g.components, w.components):
            assert_same_bytes(gc, wc)


# -- discrete Toda ---------------------------------------------------------


def test_uniform_state_is_fixed_point():
    # the all-zero state matches the fixed walls and never moves
    state = TodaState(np.zeros(6), np.zeros(6), 0.3, 1.0)
    assert np.max(np.abs(toda_run_discrete(state, 12))) == 0.0
    # a nonzero uniform value is translation invariant away from the walls:
    # interior exponentials all equal 1, so one step changes nothing there
    uniform = np.full(10, 0.7)
    nxt = toda_run_discrete(TodaState(uniform, uniform, 0.3, 1.0), 1)[-1]
    assert np.max(np.abs(nxt[1:-1] - 0.7)) == 0.0


def test_single_site_bump_explicit_step():
    amp, m, n_sites = 0.1, 4, 9
    q = np.zeros(n_sites)
    q[m] = amp
    nxt = toda_run_discrete(TodaState(q, q, 1.0, 1.0), 1)[-1]
    expected = np.zeros(n_sites)
    expected[m] = amp - math.log(1.0 - math.exp(-amp) + math.exp(amp))
    expected[m - 1] = amp  # rhs = e^{-amp}, so q_next = -log(e^{-amp})
    expected[m + 1] = -math.log(2.0 - math.exp(amp))
    assert np.allclose(nxt, expected, atol=1e-15)


def test_positivity_violation_reports_site():
    q = np.zeros(7)
    q[3] = 3.0
    with pytest.raises(NumericError, match="site 4"):
        toda_run_discrete(TodaState(q, q, 1.0, 1.0), 1)
    with pytest.raises(NumericError, match="site 4"):
        toda_run_discrete(TodaState(q, q, 1.0, 1.0), 3)


def test_run_rows_are_iterated_steps():
    state = TodaState(gaussian_bump(11, amp=0.2), gaussian_bump(11, amp=0.25), 0.4, 1.2)
    rows = toda_run_discrete(state, 25)
    assert rows.shape == (27, 11)
    assert np.array_equal(rows[0], state.q_prev) and np.array_equal(rows[1], state.q_curr)
    for row in rows[2:]:
        state = TodaState(state.q_curr, toda_run_discrete(state, 1)[-1], 0.4, 1.2)
        assert np.array_equal(row, state.q_curr)


def test_discrete_input_validation():
    q = gaussian_bump(5)
    for bad in (np.nan, np.inf, 0.0, -0.5):
        with pytest.raises(ValidationError, match="spacings"):
            TodaState(q, q, bad, 1.0)
        with pytest.raises(ValidationError, match="spacings"):
            TodaState(q, q, 0.5, bad)
    for bad in (np.nan, np.inf, -np.inf):
        qbad = q.copy()
        qbad[2] = bad
        with pytest.raises(ValidationError, match="finite"):
            TodaState(q, qbad, 0.5, 1.0)
        with pytest.raises(ValidationError, match="finite"):
            TodaState(qbad, q, 0.5, 1.0)
    with pytest.raises(ValidationError, match="steps"):
        toda_run_discrete(TodaState(q, q, 0.5, 1.0), -1)
    state = TodaState(q, q, 0.5, 1.0)
    for steps in (2.5, 2.0, True, None):
        with pytest.raises(ValidationError, match="steps"):
            toda_run_discrete(state, steps)
    assert toda_run_discrete(state, np.int64(2)).shape == (4, 5)


def test_force_energy_and_orders_validation():
    q = gaussian_bump(5)
    for l1 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="l1"):
            toda_force(q, l1)
        with pytest.raises(ValidationError, match="l1"):
            energy(q, q, l1)
    with pytest.raises(NumericError, match="vanishes"):
        discrete_continuum_orders(np.zeros(4), np.zeros(4))


def test_overflow_raises_numeric_error():
    q = gaussian_bump(5)
    with pytest.raises(NumericError, match="non-finite"):
        toda_force([800.0, 0.0], 1.0)
    with pytest.raises(NumericError, match="non-finite"):
        toda_force(q, 1e-200)  # l1^2 underflows to 0
    with pytest.raises(NumericError, match="non-finite"):
        energy(q, q, 1e200)  # l1^2 overflows
    with pytest.raises(NumericError, match="non-finite"):
        toda_integrate(q, np.zeros(5), 1.0, 1e-2, l1=1e-100)
    with pytest.raises(NumericError, match="non-finite"):
        toda_run_discrete(TodaState([0.0, 800.0], [800.0, 0.0], 0.5, 1.0), 1)
    with pytest.raises(NumericError, match="non-finite"):
        exp_field_from_slices(np.full((2, 2), -800.0), 0.5, 1.0)


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


def flaschka_lax(q, p, l1, boundary):
    """Flaschka's symmetric Lax matrix of each row of a Toda run: b_k = -p_k/2
    on the diagonal and a_k = e^{(q_k - q_{k+1})/2} / (2 l1) beside it, the
    wrap bond in the corners.  Open ends drop the wrap bond, and fixed walls
    are the odd reflection onto a periodic chain of 2n + 2 sites."""
    if boundary == "fixed":
        zero = np.zeros((len(q), 1))
        q = np.hstack([zero, q, zero, -q[:, ::-1]])
        p = np.hstack([zero, p, zero, -p[:, ::-1]])
    n = q.shape[1]
    a = np.exp((q - np.roll(q, -1, axis=1)) / 2.0) / (2.0 * l1)
    if boundary == "open":
        a[:, -1] = 0.0
    lax = np.zeros((len(q), n, n))
    k = np.arange(n)
    lax[:, k, k] = -p / 2.0
    lax[:, k, (k + 1) % n] = lax[:, (k + 1) % n, k] = a
    return lax


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_continuum_flow_keeps_its_lax_traces_to_fourth_order(boundary):
    # The traces tr L^k are integrals of motion of the Toda chain, so the
    # flow is integrable; the integrator is fourth order, so their drift
    # over a run falls 16-fold each time h halves.  Under fixed walls the
    # reflected L is similar to -L, and its odd traces vanish.
    q0 = gaussian_bump(7, amp=0.6, center=2.5)
    p0 = 0.3 * np.cos(np.arange(7))
    powers = (2, 4) if boundary == "fixed" else (2, 3, 4, 5)
    drifts = []
    for h in (0.02, 0.01, 0.005):
        traj = toda_integrate(q0, p0, 2.0, h, l1=0.8, boundary=boundary)
        lax = flaschka_lax(traj.q, traj.p, 0.8, boundary)
        traces = {k: np.trace(np.linalg.matrix_power(lax, k), axis1=1, axis2=2)
                  for k in range(2, 6)}
        drifts.append([np.max(np.abs(traces[k] - traces[k][0])) for k in powers])
        if boundary == "fixed":
            assert np.max(np.abs([traces[3], traces[5]])) < 1e-13
    ratios = np.array(drifts[:-1]) / np.array(drifts[1:])
    assert np.all((12.0 <= ratios) & (ratios <= 20.0)), ratios


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_force_is_minus_energy_gradient(boundary):
    q = 0.5 * np.random.default_rng(8).normal(size=6)
    l1, eps = 1.3, 1e-6
    grad = np.empty(6)
    for k in range(6):
        step = np.zeros(6)
        step[k] = eps
        up = energy(q + step, np.zeros(6), l1, boundary)
        down = energy(q - step, np.zeros(6), l1, boundary)
        grad[k] = (up - down) / (2 * eps)
    assert np.max(np.abs(toda_force(q, l1, boundary) + grad)) < 1e-8


def yoshida_reference(q0, p0, t_final, h, l1, boundary):
    """The integrator written out as plain Yoshida steps of `toda_force`."""
    cbrt2 = 2.0 ** (1.0 / 3.0)
    w1 = 1.0 / (2.0 - cbrt2)
    w0 = -cbrt2 / (2.0 - cbrt2)
    c = (w1 / 2.0, (w0 + w1) / 2.0, (w0 + w1) / 2.0, w1 / 2.0)
    d = (w1, w0, w1)
    q, p = np.array(q0, dtype=float), np.array(p0, dtype=float)
    qs, ps = [q], [p]
    for _ in range(int(round(t_final / h))):
        for i in range(3):
            q = q + c[i] * h * p
            p = p + d[i] * h * toda_force(q, l1, boundary)
        q = q + c[3] * h * p
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps)


@pytest.mark.parametrize("l1", [1.0, 1.3])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_integrator_is_yoshida_composition_of_force(boundary, l1):
    q0 = gaussian_bump(7, amp=0.6, center=2.5)
    p0 = 0.3 * np.cos(np.arange(7))
    traj = toda_integrate(q0, p0, 0.5, 1e-2, l1=l1, boundary=boundary)
    qs, ps = yoshida_reference(q0, p0, 0.5, 1e-2, l1, boundary)
    assert np.array_equal(traj.q, qs)
    assert np.array_equal(traj.p, ps)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_energies_match_per_row_energy(boundary):
    q0 = gaussian_bump(9, amp=0.5)
    p0 = 0.2 * np.sin(np.arange(9))
    traj = toda_integrate(q0, p0, 1.0, 1e-2, l1=0.8, boundary=boundary)
    per_row = [energy(q, p, 0.8, boundary) for q, p in zip(traj.q, traj.p)]
    # same terms; only the order of the sums may differ between the two reductions
    np.testing.assert_allclose(traj.energies(), per_row, rtol=8 * np.finfo(float).eps, atol=0)


def test_short_open_chains_have_zero_end_bonds():
    l1 = 1.5
    assert np.array_equal(toda_force([0.7], l1, "open"), [0.0])
    a, b = 0.4, -0.3
    bond = math.exp(a - b) / l1**2
    assert np.array_equal(toda_force([a, b], l1, "open"), [-bond, bond])
    assert energy([a, b], [0.0, 0.0], l1, "open") == bond
    # a lone open site moves freely
    traj = toda_integrate([0.7], [0.25], 1.0, 0.1, boundary="open")
    assert np.allclose(traj.q[:, 0], 0.7 + 0.25 * traj.times, rtol=0, atol=1e-14)
    assert np.all(traj.p == 0.25)


def test_integrator_input_validation():
    q0, p0 = gaussian_bump(5), np.zeros(5)
    with pytest.raises(ValidationError, match="boundary"):
        toda_integrate(q0, p0, 0.0, 1e-2, boundary="closed")
    for t_final in (-1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="t_final"):
            toda_integrate(q0, p0, t_final, 1e-2)
    for h in (0.0, -1e-2, np.nan, np.inf):
        with pytest.raises(ValidationError, match="step size"):
            toda_integrate(q0, p0, 1.0, h)
    for l1 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="l1"):
            toda_integrate(q0, p0, 1.0, 1e-2, l1=l1)
    for bad in (np.nan, np.inf):
        qbad = q0.copy()
        qbad[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            toda_integrate(qbad, p0, 1.0, 1e-2)
        with pytest.raises(ValidationError, match="finite"):
            toda_integrate(q0, qbad, 1.0, 1e-2)
    with pytest.raises(ValidationError, match="1-D"):
        toda_integrate([], [], 1.0, 1e-2)


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


def test_energy_definition():
    q = np.array([0.1, -0.2, 0.3])
    p = np.array([1.0, 0.0, -1.0])
    expected = 0.5 * 2.0 + math.exp(0.1 + 0.2) + math.exp(-0.2 - 0.3)
    assert energy(q, p, 1.0, "open") == pytest.approx(expected)
    with pytest.raises(ValidationError, match="equal-length"):
        energy(q, p[:2], 1.0, "open")

"""Generalized sigma-model machinery on the 2-D lattice calculus.

Axis 0 is time (spacing l0), axis 1 is space (spacing l1).  One-forms carry
their coefficients on the left of dt, dx; the star operator is defined on
right-module components, so applying it shuffles coefficients across the
differentials, which shows up below as the -l0 / -l1 shifts:

    (star w)_0 = -(w_1 c1)(x - l1),   (star w)_1 = (w_0 c0)(x - l0).

The coefficients c0, c1 are constants, so star star is a pure shift (times
-c0*c1) and star is undone by a shift and a division; that turns a conserved
current J into a closed one-form w, whose curl dw is d star J shifted one site
on each axis over -c0*c1, and the path-sum potential integrates w.  The
current ladder therefore reads the closedness of w off the conservation
residual of J that it records anyway.

The ladder works on value arrays, each with the lattice index of its first
site: every current and chi of a ladder starts at the source's first site,
and each step keeps only the window its result is defined on.  So a level
is a few numpy expressions over that window, each step returning fresh
arrays, and lattice objects are built only for what `ChiLadder` returns.
`maurer_cartan`, `field_residual`, `potential`, `invert_star_d` and
`covariant_derivative` call the same kernel, and reach it only through
`_arrays`, which turns a field or one-form on the 2-D lattice into value
arrays, its first site and its spacings.  Each kernel step does the
arithmetic of the LatticeField primitives (`forward_derivative`, `shift`,
`*`, `inverse`, `star`, `d_one_form`, `one_form_product`) in the same
order, and the tests hold the ladder to a reference built from those
primitives, byte for byte; a window too small for a step raises their
ValidationError.

The discrete Toda flow advances the newest time slice in closed form, one
logarithm per site, and satisfies the sigma-model field equation d star A = 0
exactly by construction.

Both Toda flows pad a chain of n sites with one ghost site at each end that
carries the boundary condition (q = 0 walls, open ends at -inf and +inf, or
copies of the far end for a periodic chain), so the n + 1 bonds of every
boundary come out of one array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericError,
    ValidationError,
    finite_array,
    integer,
    overflow_is_numeric,
    positive_real,
    real_number,
)
from .lattice import (
    LatticeField,
    LatticeOneForm,
    LatticeSpec,
    Window,
    forward_derivative,
    intersect_windows,
    invert_values,
    values_on,
)

TIME, SPACE = 0, 1

FLATNESS_TOL = 1e-10
FIELD_EQ_TOL = 1e-10
CLOSEDNESS_TOL = 1e-9
# step sizes of the discrete runs in `discrete_continuum_orders`, each a
# multiple of the continuum reference step
ORDER_L0S = (0.1, 0.05, 0.025)
ORDER_REF_H = 1e-3
# most float64 values one Toda run may return (1 GiB); a longer run raises
# ValidationError before it allocates
MAX_RUN_VALUES = 2**27


def two_dim_spec(l0, l1, t_range, x_range) -> LatticeSpec:
    return LatticeSpec((l0, l1), (t_range, x_range))


@dataclass(frozen=True)
class HodgeStar:
    """Constant star coefficients (c0, c1), nonzero and finite; the defaults
    give the Minkowski-type pairing.

    Constant coefficients make star star a pure shift, which is what lets
    `invert_star_d` undo star d.
    """

    c0: float = 1.0
    c1: float = -1.0

    def __post_init__(self):
        for name in ("c0", "c1"):
            c = real_number(getattr(self, name), name)
            if not (c != 0 and math.isfinite(c)):
                raise ValidationError(f"{name} must be nonzero and finite")
            object.__setattr__(self, name, c)


def _hodge(h) -> HodgeStar:
    if not isinstance(h, HodgeStar):
        raise ValidationError(f"the star coefficients must be a HodgeStar, not {type(h).__name__}")
    return h


def _components(w) -> tuple:
    """The (t, x) components of w; ValidationError unless it is a one-form
    on the 2-D lattice."""
    if not isinstance(w, LatticeOneForm) or w.spec.n != 2:
        raise ValidationError("the sigma-model steps take one-forms on the 2-D lattice")
    return w.components


def star(w: LatticeOneForm, h: HodgeStar = HodgeStar()) -> LatticeOneForm:
    """Generalized Hodge star on a one-form with left-module components."""
    w0, w1 = _components(w)
    h = _hodge(h)
    return LatticeOneForm(((-h.c1 * w1).shift(SPACE, -1), (h.c0 * w0).shift(TIME, -1)))


def d_one_form(w: LatticeOneForm) -> LatticeField:
    """Coefficient of dt dx in dw."""
    w0, w1 = _components(w)
    return forward_derivative(w1, TIME) - forward_derivative(w0, SPACE)


def one_form_product(p: LatticeOneForm, q: LatticeOneForm) -> LatticeField:
    """Coefficient of dt dx in the product of two one-forms.

    Moving q's coefficients past p's differentials shifts them forward, and
    dx dt = -dt dx collapses the four cross terms to two.
    """
    p0, p1 = _components(p)
    q0, q1 = _components(q)
    return p0 * q1.shift(TIME, 1) - p1 * q0.shift(SPACE, 1)


@dataclass(frozen=True)
class GaugeField:
    """Flat connection A = a^-1 da of a pointwise invertible source a."""

    one_form: LatticeOneForm
    flatness_residual: float


# -- the ladder kernel: value arrays and the lattice index of their first site


def _window(start, shape) -> Window:
    return tuple((s, s + n) for s, n in zip(start, shape))


def _field(spec: LatticeSpec, start, values) -> LatticeField:
    return LatticeField(spec.with_window(_window(start, values.shape)), values)


def _one_form(spec: LatticeSpec, start, w0, w1) -> LatticeOneForm:
    spec = spec.with_window(_window(start, w0.shape))
    return LatticeOneForm((LatticeField(spec, w0), LatticeField(spec, w1)))


def _floats(values: np.ndarray) -> np.ndarray:
    """Integer values as floats, the type of their differences, which the
    kernel divides in place; other values as they are."""
    return values.astype(np.result_type(values, 1.0), copy=False)


def _arrays(x):
    """The float values of a field, or of each component of a one-form, then
    the first site and the spacings: the one way from lattice objects into
    the kernel.  ValidationError unless x lives on the 2-D lattice."""
    if isinstance(x, LatticeField):
        if x.spec.n != 2:
            raise ValidationError("the sigma-model steps take fields on the 2-D lattice")
        values = (x.values,)
    else:
        values = (c.values for c in _components(x))
    return (*map(_floats, values), x.spec.start, x.spec.spacings)


def _check_overlap(start, shape, move_a, move_b) -> None:
    """Raise the lattice's ValidationError when the window of the values,
    moved by move_a and by move_b sites on (t, x), has an empty intersection:
    a forward difference along t intersects moves (-1, 0) and (0, 0)."""
    if min(shape[:2]) < 2:
        a, b = (
            _window([s + m for s, m in zip(start, move)], shape[:2])
            for move in (move_a, move_b)
        )
        intersect_windows(a, b)


def _scaled(op, v, c):
    """op(v, c) for op multiply or divide; by c = 1.0 both are exact, so
    that is v itself, without a pass."""
    return v if c == 1.0 else op(v, c)


def _product(p, q):
    """Sitewise product, the matrix product for matrix values."""
    return np.matmul(p, q) if p.ndim > 2 else np.multiply(p, q)


def _max_abs(v) -> float:
    """max|v|, 0 for no values; overwrites v, which must be scratch."""
    return float(np.abs(v, out=v).max(initial=0.0))


def _diff(v, start, axis, spacing):
    """Forward difference of v along axis 0 or 1 over `spacing`, on the
    window of v less its last row and column, which starts where v does."""
    ahead = v[1:, :-1] if axis == 0 else v[:-1, 1:]
    _check_overlap(start, v.shape, (-1, 0) if axis == 0 else (0, -1), (0, 0))
    d = np.subtract(ahead, v[:-1, :-1])
    d /= spacing
    return d


def _d(v, start, l0, l1):
    """(d_0 v, d_1 v), the forward differences of `_diff`."""
    return _diff(v, start, 0, l0), _diff(v, start, 1, l1)


def _curl(w0, w1, start, l0, l1):
    """Coefficient of dt dx in dw, d_0 w1 - d_1 w0 from `_diff`, on the
    window of w less its last row and column."""
    c = _diff(w1, start, 0, l0)
    return np.subtract(c, _diff(w0, start, 1, l1), out=c)


def _d_star(J0, J1, start, l0, l1, h):
    """Coefficient of dt dx in d star J; its window starts one site after
    J's on both axes."""
    _check_overlap(start, J0.shape, (0, 1), (1, 0))
    s0 = _scaled(np.multiply, J1[1:, :-1], -h.c1)
    s1 = _scaled(np.multiply, J0[:-1, 1:], h.c0)
    return _curl(s0, s1, (start[0] + 1, start[1] + 1), l0, l1)


def _inverse_star(J0, J1, start, h):
    """(w0, w1) with star w = J shifted one site on each axis: the d chi of
    `invert_star_d`, on J's window less its last row and column."""
    _check_overlap(start, J0.shape, (-1, 0), (0, -1))
    return _scaled(np.divide, J1[1:, :-1], h.c0), _scaled(np.divide, J0[:-1, 1:], -h.c1)


def _edge_sums(a: np.ndarray) -> np.ndarray:
    """0, a_0, a_0 + a_1, ... along axis 0: the edge sums up to each site."""
    out = np.zeros_like(a)
    out[1:] = np.cumsum(a[:-1], axis=0)
    return out


def _potential(w0, w1, start, l0, l1):
    """chi = the edge sums of w from the window corner, first in time, then
    in space, on w's window, and (d_0 chi, d_1 chi) from `_d`.  NumericError
    unless max|d chi - w| <= CLOSEDNESS_TOL."""
    chi = np.empty(w1.shape, w1.dtype)
    chi[:, 0] = 0.0
    np.cumsum(w1[:, :-1], axis=1, out=chi[:, 1:])
    chi *= l1
    chi += l0 * _edge_sums(w0[:, 0])[:, None]
    d0, d1 = _d(chi, start, l0, l1)
    miss = np.maximum(
        _max_abs(np.subtract(d0, w0[:-1, :-1])),
        _max_abs(np.subtract(d1, w1[:-1, :-1])),
    )
    if not miss <= CLOSEDNESS_TOL:
        raise NumericError(f"one-form is not closed; residual {miss:.3e}")
    return chi, d0, d1


def _covariant(chi, d0, d1, A0, A1):
    """D chi = d chi + A chi, chi commuted past the differentials, written
    over (d0, d1); A starts where chi does and covers d chi's window."""
    n, m = d0.shape[:2]
    d0 += _product(A0[:n, :m], chi[1:, :-1])
    d1 += _product(A1[:n, :m], chi[:-1, 1:])
    return d0, d1


def _connection(a: LatticeField):
    """(A0, A1) = a^-1 da on a's window less its last row and column, and
    the flatness residual max|dA + AA|."""
    finite_array(a.values, "the source")
    v, start, (l0, l1) = _arrays(a)
    ainv = invert_values(v, a.spec.window)[:-1, :-1]
    A0, A1 = (_product(ainv, d) for d in _d(v, start, l0, l1))
    flat = _curl(A0, A1, start, l0, l1)
    aa = _product(A0[:-1, :-1], A1[1:, :-1])
    aa -= _product(A1[:-1, :-1], A0[:-1, 1:])
    flat += aa
    return A0, A1, _max_abs(flat)


# -- the public steps, each one call into the kernel


@overflow_is_numeric
def maurer_cartan(a: LatticeField) -> GaugeField:
    """A = a^-1 da with the flatness check dA + AA = 0."""
    A0, A1, flat = _connection(a)
    if not flat <= FLATNESS_TOL:
        raise NumericError(f"flatness residual {flat:.3e} exceeds {FLATNESS_TOL:.1e}")
    return GaugeField(_one_form(a.spec, a.spec.start, A0, A1), flat)


@overflow_is_numeric
def field_residual(w: LatticeOneForm, h: HodgeStar = HodgeStar()) -> LatticeField:
    """Coefficient of dt dx in d star w; zero iff the field equation holds."""
    w0, w1, (t, x), (l0, l1) = _arrays(w)
    h = _hodge(h)
    return _field(w.spec, (t + 1, x + 1), _d_star(w0, w1, (t, x), l0, l1, h))


@overflow_is_numeric
def potential(w: LatticeOneForm) -> LatticeField:
    """Certified primitive chi of a closed one-form on a full rectangular window.

    Sums w along lattice edges from the lower window corner, first in time,
    then in space; closedness makes every edge path give the same sum.  The
    primitive vanishes at the corner, which makes it unique.  Raises
    NumericError unless max|d(chi) - w| <= CLOSEDNESS_TOL, which also catches
    a curl too small to see pointwise that adds up along the paths.
    """
    w0, w1, start, (l0, l1) = _arrays(w)
    return LatticeField(w.spec, _potential(w0, w1, start, l0, l1)[0])


@overflow_is_numeric
def invert_star_d(J: LatticeOneForm, h: HodgeStar = HodgeStar()) -> LatticeField:
    """Solve star d(chi) = J for a conserved current J (d star J = 0).

    The inverse star gives d chi = (J_1(x + l0) / c0, -J_0(x + l1) / c1)
    directly; it is closed because d star J = 0, and `potential` integrates
    it to chi, certifying d chi against it.
    """
    J0, J1, start, (l0, l1) = _arrays(J)
    h = _hodge(h)
    w0, w1 = _inverse_star(J0, J1, start, h)
    return _field(J.spec, start, _potential(w0, w1, start, l0, l1)[0])


@overflow_is_numeric
def covariant_derivative(chi: LatticeField, A: LatticeOneForm) -> LatticeOneForm:
    """D chi = d chi + A chi, with chi commuted past the differentials."""
    chi_values, start, (l0, l1) = _arrays(chi)
    A0, A1, A_start, _ = _arrays(A)
    d0, d1 = _d(chi_values, start, l0, l1)
    win = intersect_windows(_window(start, d0.shape), A.spec.window)
    (t, t_end), (x, x_end) = win
    A0, A1 = (values_on(v, A_start, win) for v in (A0, A1))
    chi_cut = values_on(chi_values, start, ((t, t_end + 1), (x, x_end + 1)))
    d0, d1 = (values_on(v, start, win) for v in (d0, d1))
    D0, D1 = _covariant(chi_cut, d0, d1, A0, A1)
    return _one_form(chi.spec, (t, x), D0, D1)


@dataclass
class ChiLadder:
    """Conserved-current ladder: level m is chis[m-1] = chi^(m-1), currents[m-1]
    = J^(m) and residuals[m-1] = max|d star J^(m)|."""

    chis: list
    currents: list
    residuals: list
    note: str | None = None

    @property
    def depth(self) -> int:
        return len(self.currents)


@overflow_is_numeric
def current_ladder(
    a: LatticeField,
    h: HodgeStar = HodgeStar(),
    m_max: int = 3,
) -> ChiLadder:
    """Iterate J^(m+1) = D chi^(m), chi^(m+1) = invert_star_d(J^(m+1)).

    chi^(0) is the identity, so J^(1) = A, whose residual is the field
    equation's.  A current is inverted only when its residual is under
    CLOSEDNESS_TOL |c0 c1|.  Each level consumes window layers; if the window
    runs out before m_max the ladder returns its complete levels with a note.
    Every current and chi starts at the source's first site, so the kernel
    works on their value arrays.  chi^(0), the identity on the whole window,
    is the largest array of the ladder; it is made after the last level, so
    it does not add to the memory the levels' arrays take at their peak.
    """
    if integer(m_max, "m_max") < 1:
        raise ValidationError("m_max must be at least 1")
    h = _hodge(h)
    A = maurer_cartan(a).one_form
    J0, J1 = A0, A1 = A.components[0].values, A.components[1].values
    start, (l0, l1) = a.spec.start, a.spec.spacings
    resid = _max_abs(_d_star(A0, A1, start, l0, l1, h))
    if not resid <= FIELD_EQ_TOL:
        raise NumericError(
            f"field equation residual {resid:.3e} exceeds {FIELD_EQ_TOL:.1e}; "
            "the source does not solve the sigma-model"
        )
    ladder = ChiLadder([], [A], [resid])
    for m in range(2, m_max + 1):
        if not resid <= CLOSEDNESS_TOL * abs(h.c0 * h.c1):
            raise NumericError(f"J^({m - 1}) is not conserved; residual {resid:.3e}")
        try:
            w0, w1 = _inverse_star(J0, J1, start, h)
            chi, J0, J1 = _potential(w0, w1, start, l0, l1)
            J0, J1 = _covariant(chi, J0, J1, A0, A1)
            resid = _max_abs(_d_star(J0, J1, start, l0, l1, h))
        except ValidationError as exc:
            ladder.note = f"window exhausted at level {m}: {exc}"
            break
        ladder.chis.append(_field(a.spec, start, chi))
        ladder.currents.append(_one_form(a.spec, start, J0, J1))
        ladder.residuals.append(resid)
    ladder.chis.insert(0, LatticeField.identity(a.spec, a.matrix_dim))
    return ladder

# -- Toda chains: ghost-padded bonds ------------------------------------------

BOUNDARIES = ("fixed", "open", "periodic")


def _set_ghosts(qe: np.ndarray, boundary: str) -> None:
    """Write the ghost sites qe[..., 0] and qe[..., -1] of a padded chain.

    Fixed ends are q = 0 walls.  Open ends are q = -inf on the left and
    q = +inf on the right, so both end bonds come out exactly 0.  Periodic
    ghosts copy the far end of the chain, so both end bonds are the wrap
    bond e^{q_{n-1} - q_0}.
    """
    if boundary == "fixed":
        qe[..., 0] = qe[..., -1] = 0.0
    elif boundary == "open":
        qe[..., 0], qe[..., -1] = -np.inf, np.inf
    elif boundary == "periodic":
        qe[..., 0], qe[..., -1] = qe[..., -2], qe[..., 1]
    else:
        raise ValidationError(f"boundary must be one of {BOUNDARIES}")


def _padded(q, boundary: str) -> np.ndarray:
    """A chain (or a stack of chains along the last axis) with its ghosts."""
    q = finite_array(q, "q")
    if q.ndim == 0:
        raise ValidationError("q must be a chain of sites, not a scalar")
    qe = np.empty(q.shape[:-1] + (q.shape[-1] + 2,))
    qe[..., 1:-1] = q
    _set_ghosts(qe, boundary)
    return qe


def _check_run_size(rows: float, sites: int) -> None:
    if rows * sites > MAX_RUN_VALUES:
        raise ValidationError(
            f"{rows:.3g} rows of {sites} sites exceed {MAX_RUN_VALUES} values"
        )


def _chains(a, b, what: str):
    """Float copies of a and b; ValidationError unless they are two
    equal-length nonempty 1-D arrays of finite reals."""
    a, b = (finite_array(v, what).astype(float) for v in (a, b))
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValidationError(f"{what} must be equal-length nonempty 1-D arrays")
    return a, b


def _bonds(qe: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Bond exponentials e^{q_k - q_{k+1}} of a padded chain of n sites.

    There are n + 1 of them: bonds[:-1] is the bond to the left of each
    site and bonds[1:] the bond to its right, under every boundary.
    """
    return np.exp(np.subtract(qe[..., :-1], qe[..., 1:], out=out), out=out)


# -- discrete Toda flow ------------------------------------------------------


@dataclass(frozen=True)
class TodaState:
    """Two consecutive time slices of the discrete flow.

    The chain has fixed q = 0 walls: a ghost site of value 0 beyond each end.
    """

    q_prev: np.ndarray
    q_curr: np.ndarray
    l0: float
    l1: float

    def __post_init__(self):
        qp, qc = _chains(self.q_prev, self.q_curr, "slices")
        l0 = positive_real(self.l0, "the spacings' l0")
        l1 = positive_real(self.l1, "the spacings' l1")
        for name, value in zip(("q_prev", "q_curr", "l0", "l1"), (qp, qc, l0, l1)):
            object.__setattr__(self, name, value)


@overflow_is_numeric
def toda_run_discrete(state: TodaState, steps: int) -> np.ndarray:
    """Evolve `steps` times; rows are the slices q(0), q(1), ..., q(steps+1).

    Each step q(n+1) = q(n) - log(rhs) needs the bracket rhs = e^{q(n-1)-q(n)}
    - (l0/l1)^2 [e^{q_left-q} - e^{q-q_right}] to stay positive; otherwise l0
    is too large for the data.  The end sites' outer neighbours are the walls.
    """
    if integer(steps, "steps") < 0:
        raise ValidationError("steps must be an integer >= 0")
    _check_run_size(steps + 2, state.q_curr.size)
    rows = np.empty((steps + 2, state.q_curr.size))
    rows[0], rows[1] = state.q_prev, state.q_curr
    ratio = (state.l0 / state.l1) ** 2
    qe = _padded(state.q_curr, "fixed")
    for k in range(1, steps + 1):
        q_prev, q_curr = rows[k - 1], rows[k]
        qe[1:-1] = q_curr
        bonds = _bonds(qe)
        rhs = np.exp(q_prev - q_curr) - ratio * (bonds[:-1] - bonds[1:])
        if not rhs.min() > 0:  # a nan rhs fails too
            site = int(np.argmin(rhs > 0))
            raise NumericError(
                f"positivity violated at site {site}: rhs={rhs[site]:.3e}; "
                "reduce l0 or the bump amplitude"
            )
        np.subtract(q_curr, np.log(rhs), out=rows[k + 1])
    return rows


@overflow_is_numeric
def exp_field_from_slices(slices: np.ndarray, l0: float, l1: float) -> LatticeField:
    """The sigma-model source a = e^{-q} on the spacetime window of a run."""
    slices = finite_array(slices, "slices")
    if slices.ndim != 2:
        raise ValidationError("slices must be a 2-D array, one row per time")
    spec = two_dim_spec(l0, l1, (0, slices.shape[0]), (0, slices.shape[1]))
    return LatticeField(spec, np.exp(-slices))


# -- continuum Toda lattice --------------------------------------------------

_CBRT2 = 2.0 ** (1.0 / 3.0)
_YOSHIDA_W1 = 1.0 / (2.0 - _CBRT2)
_YOSHIDA_W0 = -_CBRT2 / (2.0 - _CBRT2)
_YOSHIDA_C = (
    _YOSHIDA_W1 / 2.0,
    (_YOSHIDA_W0 + _YOSHIDA_W1) / 2.0,
    (_YOSHIDA_W0 + _YOSHIDA_W1) / 2.0,
    _YOSHIDA_W1 / 2.0,
)
_YOSHIDA_D = (_YOSHIDA_W1, _YOSHIDA_W0, _YOSHIDA_W1)


@overflow_is_numeric
def toda_force(q, l1: float, boundary: str = "fixed") -> np.ndarray:
    """Acceleration -(1/l1^2)(e^{q_k - q_{k+1}} - e^{q_{k-1} - q_k}).

    The end sites' outer neighbours are the boundary's ghost sites.
    """
    l1 = positive_real(l1, "spacing l1")
    bonds = _bonds(_padded(q, boundary))
    return -(bonds[..., 1:] - bonds[..., :-1]) / l1**2


@dataclass
class TodaTrajectory:
    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    l1: float
    boundary: str

    @overflow_is_numeric
    def energies(self) -> np.ndarray:
        """The energy of each row of the run."""
        bonds = _bonds(_padded(self.q, self.boundary))
        if self.boundary == "periodic":
            bonds = bonds[..., 1:]  # both end bonds are the wrap bond; count it once
        kin = 0.5 * np.sum(np.asarray(self.p) ** 2, axis=-1)
        return kin + np.sum(bonds, axis=-1) / self.l1**2

    def momenta(self) -> np.ndarray:
        return self.p.sum(axis=1)


@overflow_is_numeric
def toda_integrate(
    q0,
    p0,
    t_final: float,
    h: float,
    l1: float = 1.0,
    boundary: str = "fixed",
) -> TodaTrajectory:
    """Fourth-order symplectic (Yoshida) integration of the Toda chain.

    The chain lives inside one padded buffer whose ghost sites carry the
    boundary (see `_set_ghosts`); only periodic ghosts move with the chain.
    """
    h = positive_real(h, "step size")
    if not 0 <= real_number(t_final, "t_final") < math.inf:
        raise ValidationError("t_final must be finite and >= 0")
    l1 = positive_real(l1, "spacing l1")
    q, p = _chains(q0, p0, "q0 and p0")
    _check_run_size(2 * (t_final / h + 1), q.size)  # the q and p rows
    qe = _padded(q, boundary)
    q = qe[1:-1]
    periodic = boundary == "periodic"
    steps = int(round(t_final / h))
    qs = np.empty((steps + 1, q.size))
    ps = np.empty((steps + 1, q.size))
    qs[0], ps[0] = q, p
    drifts = [c * h for c in _YOSHIDA_C]
    kicks = [d * h for d in _YOSHIDA_D]
    l1sq = l1**2
    bonds = np.empty(q.size + 1)
    left, right = bonds[:-1], bonds[1:]
    move = np.empty(q.size)
    for n in range(steps):
        for i in range(3):
            q += np.multiply(p, drifts[i], out=move)
            if periodic:
                _set_ghosts(qe, boundary)
            _bonds(qe, out=bonds)
            # p + kick * toda_force(q), rounded step by step as toda_force is
            np.subtract(right, left, out=move)
            move /= l1sq
            move *= kicks[i]
            p -= move
        q += np.multiply(p, drifts[3], out=move)
        qs[n + 1], ps[n + 1] = q, p
    return TodaTrajectory(
        times=np.arange(steps + 1) * h, q=qs, p=ps, l1=l1, boundary=boundary
    )


def discrete_continuum_orders(q0, p0, t_final: float = 1.0):
    """Observed convergence orders of the discrete flow against the continuum
    at the step sizes ORDER_L0S, with unit space step l1.

    Each discrete run is seeded with the reference trajectory's first two
    slices, so the measured error is purely the scheme's O(l0) defect.
    Returns (errors, orders).  Every run needs a step, so t_final must be
    at least max(ORDER_L0S).
    """
    if not real_number(t_final, "t_final") >= max(ORDER_L0S):
        raise ValidationError(f"t_final must be at least {max(ORDER_L0S)}")
    ref = toda_integrate(q0, p0, t_final, ORDER_REF_H, boundary="fixed")
    errors = []
    for l0 in ORDER_L0S:
        per = int(round(l0 / ORDER_REF_H))
        n_final = int(round(t_final / l0))
        state = TodaState(q0, ref.q[per], l0, 1.0)
        run = toda_run_discrete(state, n_final - 1)
        errors.append(float(np.max(np.abs(run[n_final] - ref.q[n_final * per]))))
    if not min(errors) > 0:
        raise NumericError(f"an error vanishes, so the orders are undefined: {errors}")
    orders = [
        math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)
    ]
    return errors, orders

"""Generalized sigma-model machinery on the 2-D lattice calculus.

Axis 0 is time (spacing l0), axis 1 is space (spacing l1).  One-forms carry
their coefficients on the left of dt, dx; the star operator is defined on
right-module components, so applying it shuffles coefficients across the
differentials, which shows up below as the -l0 / -l1 shifts:

    (star w)_0 = -(w_1 c1)(x - l1),   (star w)_1 = (w_0 c0)(x - l0).

With constant coefficients star star is a pure shift (times -c0*c1), which
is what makes closed one-forms invertible through the path-sum potential.
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

from .errors import NumericError, ValidationError
from .lattice import (
    LatticeField,
    LatticeOneForm,
    LatticeSpec,
    exterior_derivative,
    forward_derivative,
)

TIME, SPACE = 0, 1

FLATNESS_TOL = 1e-10
FIELD_EQ_TOL = 1e-10
CLOSEDNESS_TOL = 1e-9
LADDER_VERIFY_TOL = 1e-9
# step sizes of the discrete runs in `discrete_continuum_orders`, each a
# multiple of the continuum reference step
ORDER_L0S = (0.1, 0.05, 0.025)
ORDER_REF_H = 1e-3


def two_dim_spec(l0, l1, t_range, x_range) -> LatticeSpec:
    return LatticeSpec((l0, l1), (tuple(t_range), tuple(x_range)))


@dataclass(frozen=True)
class HodgeStar:
    """Star coefficients (c0, c1); defaults give the Minkowski-type pairing.

    Constant scalars or nowhere-zero scalar lattice fields are accepted;
    only the constant case admits the shift inversion used by the ladder.
    """

    c0: object = 1.0
    c1: object = -1.0

    def __post_init__(self):
        for name, c in (("c0", self.c0), ("c1", self.c1)):
            if isinstance(c, LatticeField):
                if c.is_matrix:
                    raise ValidationError(f"{name} must be scalar-valued")
                if np.any(c.values == 0):
                    raise ValidationError(f"{name} vanishes somewhere; star not invertible")
            elif c == 0:
                raise ValidationError(f"{name} must be nonzero")

    @property
    def is_constant(self) -> bool:
        return not isinstance(self.c0, LatticeField) and not isinstance(
            self.c1, LatticeField
        )


def _cmul(c, w: LatticeField) -> LatticeField:
    """Multiply a coefficient field by a star coefficient (scalar or field)."""
    if isinstance(c, LatticeField):
        return c * w
    return float(c) * w


def star(w: LatticeOneForm, h: HodgeStar = HodgeStar()) -> LatticeOneForm:
    """Generalized Hodge star on a one-form with left-module components."""
    w0, w1 = w.components
    u0 = -_cmul(h.c1, w1).shift(SPACE, -1)
    u1 = _cmul(h.c0, w0).shift(TIME, -1)
    return LatticeOneForm((u0, u1))


def d_one_form(w: LatticeOneForm) -> LatticeField:
    """Coefficient of dt dx in dw."""
    w0, w1 = w.components
    return forward_derivative(w1, TIME) - forward_derivative(w0, SPACE)


def one_form_product(p: LatticeOneForm, q: LatticeOneForm) -> LatticeField:
    """Coefficient of dt dx in the product of two one-forms.

    Moving q's coefficients past p's differentials shifts them forward, and
    dx dt = -dt dx collapses the four cross terms to two.
    """
    p0, p1 = p.components
    q0, q1 = q.components
    return p0 * q1.shift(TIME, 1) - p1 * q0.shift(SPACE, 1)


def star_product(w: LatticeOneForm, u: LatticeOneForm, h: HodgeStar) -> LatticeField:
    """w star u as a two-form coefficient; symmetric for scalar one-forms."""
    return one_form_product(w, star(u, h))


@dataclass(frozen=True)
class GaugeField:
    """Pointwise invertible source a with its flat connection A = a^-1 da."""

    a: LatticeField
    one_form: LatticeOneForm
    flatness_residual: float


def maurer_cartan(a: LatticeField) -> GaugeField:
    """A = a^-1 da with the flatness check dA + AA = 0."""
    ainv = a.inverse()
    comps = tuple(ainv * forward_derivative(a, mu) for mu in (TIME, SPACE))
    one_form = LatticeOneForm(comps)
    flat = (d_one_form(one_form) + one_form_product(one_form, one_form)).max_abs()
    if flat > FLATNESS_TOL:
        raise NumericError(f"flatness residual {flat:.3e} exceeds {FLATNESS_TOL:.1e}")
    return GaugeField(a=a, one_form=one_form, flatness_residual=flat)


def field_residual(w: LatticeOneForm, h: HodgeStar = HodgeStar()) -> LatticeField:
    """Coefficient of dt dx in d star w; zero iff the field equation holds."""
    return d_one_form(star(w, h))


def _edge_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """0, a_0, a_0 + a_1, ... along `axis`: the edge sums up to each site."""
    out = np.zeros_like(a)
    head = (slice(None),) * axis
    out[head + (slice(1, None),)] = np.cumsum(a[head + (slice(-1),)], axis=axis)
    return out


def potential(w: LatticeOneForm, order: str = "t-first") -> LatticeField:
    """Primitive of a closed one-form on a full rectangular window.

    Integrates along lattice edges from the lower window corner, first in
    time then in space (or the other way around); closedness makes the two
    orders agree.  The primitive vanishes at the origin corner.
    """
    resid = d_one_form(w).max_abs()
    if resid > CLOSEDNESS_TOL:
        raise NumericError(f"one-form is not closed; residual {resid:.3e}")
    l0, l1 = w.spec.spacings
    w0 = w.components[0].values
    w1 = w.components[1].values
    if order == "t-first":
        vals = l0 * _edge_sums(w0[:, 0], 0)[:, None] + l1 * _edge_sums(w1, 1)
    elif order == "x-first":
        vals = l1 * _edge_sums(w1[0], 0)[None, :] + l0 * _edge_sums(w0, 0)
    else:
        raise ValidationError(f"unknown integration order {order!r}")
    return LatticeField(w.spec, vals)


def invert_star_d(J: LatticeOneForm, h: HodgeStar = HodgeStar()) -> LatticeField:
    """Solve star d(chi) = J for a conserved current J (d star J = 0).

    star J is closed by hypothesis; shifting it by +l0+l1 undoes the double
    star (up to the constant -c0*c1), and the potential construction then
    yields chi.  Requires constant star coefficients.
    """
    if not h.is_constant:
        raise ValidationError("invert_star_d needs constant star coefficients")
    scale = -float(h.c0) * float(h.c1)
    starj = star(J, h)
    shifted = LatticeOneForm(
        tuple(c.shift(TIME, 1).shift(SPACE, 1) / scale for c in starj.components)
    )
    chi = potential(shifted)
    back = star(exterior_derivative(chi), h)
    err = (back - J).max_abs()
    if err > LADDER_VERIFY_TOL:
        raise NumericError(f"star d chi misses J by {err:.3e}")
    return chi


def covariant_derivative(chi: LatticeField, A: LatticeOneForm) -> LatticeOneForm:
    """D chi = d chi + A chi, with chi commuted past the differentials."""
    comps = []
    for mu in (TIME, SPACE):
        comps.append(
            forward_derivative(chi, mu) + A.components[mu] * chi.shift(mu, 1)
        )
    return LatticeOneForm(tuple(comps))


@dataclass
class ChiLadder:
    """Conserved-current ladder: chi levels, currents, conservation residuals."""

    chis: list
    currents: list
    residuals: list
    note: str | None = None

    @property
    def depth(self) -> int:
        return len(self.currents)


def current_ladder(
    a: LatticeField,
    h: HodgeStar = HodgeStar(),
    m_max: int = 3,
) -> ChiLadder:
    """Iterate J^(m+1) = D chi^(m), chi^(m+1) = invert_star_d(J^(m+1)).

    chi^(0) is the identity, so J^(1) = A.  Each level consumes window
    layers; if the window runs out before m_max the ladder returns partial
    results with an explanatory note.
    """
    gauge = maurer_cartan(a)
    A = gauge.one_form
    fres = field_residual(A, h).max_abs()
    if fres > FIELD_EQ_TOL:
        raise NumericError(
            f"field equation residual {fres:.3e} exceeds {FIELD_EQ_TOL:.1e}; "
            "the source does not solve the sigma-model"
        )
    chi0 = LatticeField.identity(a.spec, a.matrix_dim)
    ladder = ChiLadder(chis=[chi0], currents=[], residuals=[])
    for m in range(1, m_max + 1):
        try:
            current = covariant_derivative(ladder.chis[-1], A)
            resid = field_residual(current, h).max_abs()
        except ValidationError as exc:
            ladder.note = f"window exhausted at level {m}: {exc}"
            return ladder
        ladder.currents.append(current)
        ladder.residuals.append(resid)
        if m < m_max:
            try:
                ladder.chis.append(invert_star_d(current, h))
            except ValidationError as exc:
                ladder.note = f"window exhausted inverting level {m}: {exc}"
                return ladder
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
    q = np.asarray(q, dtype=float)
    qe = np.empty(q.shape[:-1] + (q.shape[-1] + 2,))
    qe[..., 1:-1] = q
    _set_ghosts(qe, boundary)
    return qe


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
        qp = np.asarray(self.q_prev, dtype=float)
        qc = np.asarray(self.q_curr, dtype=float)
        if qp.shape != qc.shape or qp.ndim != 1 or qp.size == 0:
            raise ValidationError("slices must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(qp)) and np.all(np.isfinite(qc))):
            raise ValidationError("slices must be finite")
        if not (0 < self.l0 < math.inf and 0 < self.l1 < math.inf):
            raise ValidationError("spacings must be positive and finite")
        object.__setattr__(self, "q_prev", qp)
        object.__setattr__(self, "q_curr", qc)


def toda_step_discrete(state: TodaState) -> TodaState:
    """One step of the discrete-time Toda flow, solving the field equation.

    The update q(n+1) = q(n) - log(rhs) requires the bracket

        rhs = e^{q(n-1)-q(n)} - (l0/l1)^2 [e^{q_left-q} - e^{q-q_right}]

    to stay positive; otherwise the step size l0 is too large for the data.
    The end sites' outer neighbours are the q = 0 wall ghosts.
    """
    q_next = toda_run_discrete(state, 1)[-1]
    return TodaState(state.q_curr, q_next, state.l0, state.l1)


def toda_run_discrete(state: TodaState, steps: int) -> np.ndarray:
    """Evolve `steps` times; rows are the slices q(0), q(1), ..., q(steps+1)."""
    if steps < 0:
        raise ValidationError("steps must be >= 0")
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


def exp_field_from_slices(slices: np.ndarray, l0: float, l1: float) -> LatticeField:
    """The sigma-model source a = e^{-q} on the spacetime window of a run."""
    slices = np.asarray(slices, dtype=float)
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


def toda_force(q, l1: float, boundary: str = "fixed") -> np.ndarray:
    """Acceleration -(1/l1^2)(e^{q_k - q_{k+1}} - e^{q_{k-1} - q_k}).

    The end sites' outer neighbours are the boundary's ghost sites.
    """
    bonds = _bonds(_padded(q, boundary))
    return -(bonds[..., 1:] - bonds[..., :-1]) / l1**2


def _energy(q, p, l1: float, boundary: str) -> np.ndarray:
    """Energy of a chain, or of each row of a stack of chains."""
    bonds = _bonds(_padded(q, boundary))
    if boundary == "periodic":
        bonds = bonds[..., 1:]  # both end bonds are the wrap bond; count it once
    kin = 0.5 * np.sum(np.asarray(p) ** 2, axis=-1)
    return kin + np.sum(bonds, axis=-1) / l1**2


def toda_energy(q, p, l1: float, boundary: str = "fixed") -> float:
    if np.ndim(q) != 1 or np.shape(q) != np.shape(p):
        raise ValidationError("q and p must be equal-length 1-D arrays")
    return float(_energy(q, p, l1, boundary))


@dataclass
class TodaTrajectory:
    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    l1: float
    boundary: str

    def energies(self) -> np.ndarray:
        return _energy(self.q, self.p, self.l1, self.boundary)

    def momenta(self) -> np.ndarray:
        return self.p.sum(axis=1)


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
    if not 0 < h < math.inf:
        raise ValidationError("step size must be positive and finite")
    if not 0 <= t_final < math.inf:
        raise ValidationError("t_final must be finite and >= 0")
    if not 0 < l1 < math.inf:
        raise ValidationError("spacing l1 must be positive and finite")
    q = np.array(q0, dtype=float)
    p = np.array(p0, dtype=float)
    if q.shape != p.shape or q.ndim != 1 or q.size == 0:
        raise ValidationError("q0 and p0 must be equal-length nonempty 1-D arrays")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValidationError("q0 and p0 must be finite")
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


def discrete_continuum_orders(q0, p0, t_final: float = 1.0, l1: float = 1.0):
    """Observed convergence orders of the discrete flow against the continuum
    at the step sizes ORDER_L0S.

    Each discrete run is seeded with the reference trajectory's first two
    slices, so the measured error is purely the scheme's O(l0) defect.
    Returns (errors, orders).
    """
    q0 = np.asarray(q0, dtype=float)
    ref = toda_integrate(q0, p0, t_final, ORDER_REF_H, l1=l1, boundary="fixed")
    errors = []
    for l0 in ORDER_L0S:
        per = int(round(l0 / ORDER_REF_H))
        n_final = int(round(t_final / l0))
        state = TodaState(q0, ref.q[per], l0, l1)
        run = toda_run_discrete(state, n_final - 1)
        errors.append(float(np.max(np.abs(run[n_final] - ref.q[n_final * per]))))
    orders = [
        math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)
    ]
    return errors, orders

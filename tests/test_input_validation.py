"""Numeric arguments: a bad value raises ValidationError, a numeric failure
NumericError, and no bare Python or numpy error escapes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeom.distance import DistanceProblem
from ncgeom.errors import NumericError, ValidationError
from ncgeom.lattice import LatticeSpec
from ncgeom.sigma_toda import (
    HodgeStar,
    TodaState,
    discrete_continuum_orders,
    toda_energy,
    toda_force,
    toda_run_discrete,
)

BUMP = 0.3 * np.exp(-0.5 * (np.arange(4) - 1.5) ** 2)
STATE = TodaState(BUMP, BUMP, 0.5, 1.0)

VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 2.5, True]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-4, 4),
)

ENTRY_POINTS = {
    "LatticeSpec spacing": lambda v: LatticeSpec((v, 1.0), ((0, 3), (0, 3))),
    "LatticeSpec bound": lambda v: LatticeSpec((1.0, 1.0), ((0, 3), (v, 3))),
    "DistanceProblem": lambda v: DistanceProblem(np.array([[0, 1.0], [1, 0]]), v, 1),
    "HodgeStar c0": lambda v: HodgeStar(c0=v),
    "HodgeStar c1": lambda v: HodgeStar(c1=v),
    "toda_run_discrete": lambda v: toda_run_discrete(STATE, v),
    "toda_force": lambda v: toda_force(BUMP, v),
    "toda_energy": lambda v: toda_energy(BUMP, BUMP, v),
    "discrete_continuum_orders": lambda v: discrete_continuum_orders(
        np.full(4, float(v)), np.zeros(4)
    ),
}


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(ENTRY_POINTS)), value=VALUES)
def test_bad_numbers_raise_only_ncgeom_errors(name, value):
    try:
        ENTRY_POINTS[name](value)
    except (ValidationError, NumericError):
        pass

"""Tests for windowed lattice fields, one-forms and derivatives.

The structure tensor is checked against the digraph calculus of the oriented
grid in tests/test_finite_calculus.py."""

import math

import numpy as np
import pytest

from ncgeom.errors import ValidationError
from ncgeom.lattice import (
    LatticeField,
    LatticeOneForm,
    LatticeSpec,
    exterior_derivative,
    forward_derivative,
)


def test_forward_derivative_of_coordinate_is_one():
    spec = LatticeSpec((0.5,), ((-4, 5),))
    x = LatticeField.coordinate(spec, 0)
    d = forward_derivative(x, 0)
    assert d.spec.window == ((-4, 4),)
    assert np.allclose(d.values, 1.0)


def test_forward_derivative_of_square():
    spec = LatticeSpec((0.25,), ((4, 13),))  # x from 1.0 to 3.0
    x = LatticeField.coordinate(spec, 0)
    d = forward_derivative(x * x, 0)
    assert np.allclose(d.values, 2 * x.restricted(d.spec.window).values + 0.25)


def test_periodic_function_is_lattice_constant():
    # period-l functions are the constants of the calculus
    spec = LatticeSpec((1.0,), ((0, 12),))
    f = LatticeField(spec, np.sin(2 * np.pi * LatticeField.coordinate(spec, 0).values))
    assert forward_derivative(f, 0).max_abs() < 1e-12


def test_commute_past_shifts():
    spec = LatticeSpec((1.0, 1.0), ((0, 5), (0, 5)))
    rng = np.random.default_rng(2)
    f = LatticeField(spec, rng.normal(size=(5, 5)))
    g = f.shift(0)
    assert g[(0, 2)] == f[(1, 2)]
    const = LatticeField.constant(spec, 2.0)
    assert np.all(const.shift(1).values == 2.0)
    # shifts along different axes commute
    a = f.shift(0).shift(1)
    b = f.shift(1).shift(0)
    assert a.spec.window == b.spec.window
    assert np.array_equal(a.values, b.values)


def test_commute_past_window_exhaustion():
    spec = LatticeSpec((1.0,), ((0, 3),))
    f = LatticeField.coordinate(spec, 0)
    shifted = f.shift(0, steps=5)  # window translates
    with pytest.raises(ValidationError):
        shifted + f  # no overlap left


def test_exterior_derivative_of_first_coordinate():
    spec = LatticeSpec((0.5, 2.0), ((0, 4), (0, 4)))
    x0 = LatticeField.coordinate(spec, 0)
    w = exterior_derivative(x0)
    assert np.allclose(w.components[0].values, 1.0)
    assert np.allclose(w.components[1].values, 0.0)


def test_commutation_relation_on_coordinates():
    # [dx^mu, x^nu] = l^mu delta^{mu nu} dx^mu, exact on coordinate functions
    spec = LatticeSpec((1.0, 0.5), ((0, 6), (0, 6)))
    for mu in range(2):
        for nu in range(2):
            x = LatticeField.coordinate(spec, nu)
            coeff = x.shift(mu) - x  # dx^mu x^nu - x^nu dx^mu coefficient
            want = spec.spacings[mu] if mu == nu else 0.0
            assert np.all(coeff.values == want)


def test_forward_derivative_first_order_convergence():
    # error of the forward difference on sin(x) at x=0.3 scales like l
    errs = []
    for ell, start in [(0.1, 3), (0.05, 6), (0.025, 12)]:  # start * ell = 0.3
        spec = LatticeSpec((ell,), ((start, start + 8),))
        f = LatticeField(spec, np.sin(LatticeField.coordinate(spec, 0).values))
        d = forward_derivative(f, 0)
        errs.append(abs(d[start] - math.cos(0.3)))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    for order in orders:
        assert order == pytest.approx(1.0, abs=0.2)


# -- field plumbing ------------------------------------------------------


def test_matrix_field_multiplication():
    spec = LatticeSpec((1.0,), ((0, 3),))
    rng = np.random.default_rng(6)
    a = LatticeField(spec, rng.normal(size=(3, 2, 2)))
    b = LatticeField(spec, rng.normal(size=(3, 2, 2)))
    prod = a * b
    assert np.allclose(prod.values[1], a.values[1] @ b.values[1])
    s = LatticeField(spec, np.array([2.0, 3.0, 4.0]))
    scaled = s * a
    assert np.allclose(scaled.values[2], 4.0 * a.values[2])
    # a matrix field times a scalar field scales each site's matrix too
    assert np.array_equal((a * s).values, s.values[:, None, None] * a.values)


def test_matrix_field_inverse_reports_site():
    spec = LatticeSpec((1.0,), ((5, 7),))
    vals = np.stack([np.eye(2), np.zeros((2, 2))])
    f = LatticeField(spec, vals)
    with pytest.raises(ValidationError, match="6"):
        f.inverse()


def test_one_form_max_abs_keeps_nan_of_any_component():
    spec = LatticeSpec((1.0, 1.0), ((0, 3), (0, 3)))
    zero = LatticeField.constant(spec, 0.0)
    nan = LatticeField.constant(spec, np.nan)
    assert math.isnan(LatticeOneForm((zero, nan)).max_abs())
    assert math.isnan(LatticeOneForm((nan, zero)).max_abs())
    assert LatticeOneForm((zero, 2.0 * zero - 3.0)).max_abs() == 3.0


def test_window_validation():
    with pytest.raises(ValidationError):
        LatticeSpec((1.0,), ((3, 3),))
    with pytest.raises(ValidationError):
        LatticeSpec((-1.0,), ((0, 3),))
    for bad in (math.nan, math.inf, -math.inf, 0.0, None):
        with pytest.raises(ValidationError, match="spacings"):
            LatticeSpec((1.0, bad), ((0, 3), (0, 3)))
    for bad in (2.7, 2.0, np.float64(3.0), None, "3"):
        with pytest.raises(ValidationError, match="integer"):
            LatticeSpec((1.0,), ((0, bad),))
    spec = LatticeSpec((np.float32(0.5),), ((np.int64(-2), np.int32(3)),))
    assert spec.window == ((-2, 3),) and spec.shape == (5,)
    assert type(spec.window[0][0]) is int and spec.spacings == (0.5,)

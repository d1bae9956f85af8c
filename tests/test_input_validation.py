"""Numeric arguments: a bad value raises ValidationError, a numeric failure
NumericError, and no bare Python or numpy error escapes (pyproject.toml turns
numpy's RuntimeWarnings, ComplexWarning among them, into errors)."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeom.distance import (
    DistanceProblem,
    commutator_norm,
    distance,
    distance_matrix,
    oracle_distance,
)
from ncgeom.errors import NumericError, ValidationError
from ncgeom.finite_calculus import (
    Digraph,
    FiniteSet,
    FormExpr,
    build_universal,
    calculus_for,
    function_differential,
    multiply,
    reduce,
)
from ncgeom.io import load_digraph
from ncgeom.lattice import (
    LatticeField,
    LatticeOneForm,
    LatticeSpec,
    exterior_derivative,
    intersect_windows,
)
from ncgeom.matrix_rep import (
    AdjacencyMatrix,
    DoubledOperator,
    base_matrix,
    double,
    represent_function,
    verify_triple,
)
from ncgeom.sigma_toda import (
    HodgeStar,
    TodaState,
    current_ladder,
    discrete_continuum_orders,
    covariant_derivative,
    d_one_form,
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

BUMP = 0.3 * np.exp(-0.5 * (np.arange(4) - 1.5) ** 2)
STATE = TodaState(BUMP, BUMP, 0.5, 1.0)
TWO_POINT = np.array([[0, 1.0], [1, 0]])
LINE = LatticeSpec((1.0,), ((0, 4),))
PLANE = LatticeSpec((1.0, 1.0), ((0, 8), (0, 8)))
LINE_FIELD = LatticeField(LINE, np.exp(-BUMP))
PLANE_FIELD = LatticeField.constant(PLANE, 1.0)
LINE_FORM = exterior_derivative(LINE_FIELD)
PLANE_FORM = exterior_derivative(PLANE_FIELD)
PLANE_2X2 = LatticeField.identity(PLANE, 2)
PLANE_3X3 = LatticeField.identity(PLANE, 3)
DOUBLED = double(TWO_POINT)
ARROW = Digraph.from_arrows(2, [(0, 1)])
ARROW_CALCULUS = calculus_for(ARROW)


def two_point(entry):
    """The two-point operator with D[0, 1] = entry, in numpy's dtype for it."""
    return np.array([[0, entry], [1, 0]])


VALUES = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 2.5, True, None, 1j, "1", "a"]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(),
    st.text(max_size=3),
    st.integers(-4, 4),
)

ENTRY_POINTS = {
    "LatticeSpec spacing": lambda v: LatticeSpec((v, 1.0), ((0, 3), (0, 3))),
    "LatticeSpec bound": lambda v: LatticeSpec((1.0, 1.0), ((0, 3), (v, 3))),
    "build_universal size": lambda v: build_universal(v, degree_cap=2),
    "DistanceProblem index": lambda v: DistanceProblem(TWO_POINT, v, 1),
    "DistanceProblem operator": lambda v: DistanceProblem(two_point(v), 0, 1),
    "commutator_norm": lambda v: commutator_norm(TWO_POINT, np.array([0, v])),
    "Digraph vertex": lambda v: calculus_for(Digraph.from_arrows(3, [(0, v)]), 2),
    "FormExpr vertex": lambda v: multiply(
        FormExpr({(v,): 1}), ARROW_CALCULUS.unit(), ARROW_CALCULUS
    ),
    "from_digraph length": lambda v: AdjacencyMatrix.from_digraph(ARROW, {(0, 1): v}),
    "degree_cap": lambda v: calculus_for(Digraph.from_arrows(2, [(0, 1)]), v),
    "dimension degree": lambda v: ARROW_CALCULUS.dimension(v),
    "basis degree": lambda v: ARROW_CALCULUS.basis(v),
    "relations degree": lambda v: ARROW_CALCULUS.relations(v),
    "HodgeStar c0": lambda v: HodgeStar(c0=v),
    "HodgeStar c1": lambda v: HodgeStar(c1=v),
    "TodaState l0": lambda v: TodaState(BUMP, BUMP, v, 1.0),
    "TodaState q": lambda v: TodaState(BUMP, np.array([0, 0, 0, v]), 0.5, 1.0),
    "toda_run_discrete": lambda v: toda_run_discrete(STATE, v),
    "toda_force": lambda v: toda_force(BUMP, v),
    "current_ladder m_max": lambda v: current_ladder(
        LatticeField.constant(PLANE, 1.0), m_max=v
    ),
    "current_ladder source": lambda v: current_ladder(LatticeField.constant(PLANE, v)),
    "discrete_continuum_orders": lambda v: discrete_continuum_orders(
        np.full(4, v), np.zeros(4)
    ),
    "LatticeField index": lambda v: PLANE_FIELD[(v, 0)],
    "1-D LatticeField index": lambda v: LINE_FIELD[v],
    "LatticeField shift axis": lambda v: PLANE_FIELD.shift(v),
    "LatticeField shift steps": lambda v: PLANE_FIELD.shift(0, v),
    "verify_triple function": lambda v: verify_triple(double(TWO_POINT), [[0.0, v]]),
    "function_differential": lambda v: function_differential([0, v], ARROW_CALCULUS),
    "represent_function": lambda v: represent_function([0.0, v]),
}


@pytest.mark.fixed_seed
@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(ENTRY_POINTS)), value=VALUES)
def test_bad_numbers_raise_only_ncgeom_errors(name, value):
    try:
        ENTRY_POINTS[name](value)
    except (ValidationError, NumericError):
        pass


# Each input below once escaped as a bare Python or numpy error or warning,
# or was accepted.  Step counts and t_final stay out of the property test: a
# large finite one is a valid run that takes minutes.
REJECTED = {
    "nan operator": lambda: distance(DistanceProblem(two_point(np.nan), 0, 1)),
    "inf operator": lambda: distance(DistanceProblem(two_point(np.inf), 0, 1)),
    "string operator": lambda: DistanceProblem(two_point("1"), 0, 1),
    "empty operator matrix": lambda: distance_matrix(np.zeros((0, 0))),
    "nan operator matrix": lambda: distance_matrix(np.array([[np.nan]])),
    "nan function": lambda: commutator_norm(TWO_POINT, [0.0, np.nan]),
    "nan triple function": lambda: verify_triple(double(TWO_POINT), [[0.0, np.nan]]),
    "short lattice index": lambda: PLANE_FIELD[(1,)],
    "long lattice index": lambda: PLANE_FIELD[(1, 2, 3)],
    "bool window bound": lambda: LatticeSpec((1.0,), ((False, 3),)),
    "string spacing": lambda: LatticeSpec(("0.5",), ((0, 3),)),
    "bool spacing": lambda: LatticeSpec((True,), ((0, 3),)),
    "string weights": lambda: AdjacencyMatrix(np.array([["0", "1"], ["1", "0"]])),
    "bool weights": lambda: AdjacencyMatrix(np.array([[False, True], [True, False]])),
    "fractional point count": lambda: build_universal(2.5),
    "string point count": lambda: build_universal("3"),
    "bool point count": lambda: build_universal(True),
    "fractional digraph size": lambda: Digraph.from_arrows(2.5, []),
    "1-D maurer_cartan": lambda: maurer_cartan(LINE_FIELD),
    "1-D current_ladder": lambda: current_ladder(LINE_FIELD),
    "1-D slices": lambda: exp_field_from_slices(BUMP, 0.5, 1.0),
    "empty ladder": lambda: current_ladder(LatticeField.constant(PLANE, 1.0), m_max=0),
    "nan source": lambda: current_ladder(LatticeField.constant(PLANE, np.nan)),
    "inf source": lambda: current_ladder(LatticeField.constant(PLANE, np.inf)),
    "nan maurer_cartan": lambda: maurer_cartan(LatticeField.constant(PLANE, np.nan)),
    "-inf maurer_cartan": lambda: maurer_cartan(LatticeField.constant(PLANE, -np.inf)),
    "fractional vertex": lambda: calculus_for(Digraph.from_arrows(3, [(0, 1.5)])),
    "fractional path vertex": lambda: FormExpr({(0.5,): 1}),
    "nan coefficient": lambda: FormExpr({(0, 1): math.nan}),
    "inf scalar": lambda: math.inf * FormExpr.from_path((0, 1)),
    "bool length": lambda: AdjacencyMatrix.from_digraph(ARROW, {(0, 1): True}),
    "fractional cap": lambda: calculus_for(Digraph.from_arrows(2, [(0, 1)]), 2.5),
    "string spacing l0": lambda: TodaState(BUMP, BUMP, "0.5", 1.0),
    "complex slice": lambda: TodaState(BUMP, BUMP + 0j, 0.5, 1.0),
    "nan represent_function": lambda: represent_function([0.0, math.nan]),
    "string represent_function": lambda: represent_function(["a", "b"]),
    "2-D represent_function": lambda: represent_function([[1.0, 2.0], [3.0, 4.0]]),
    "2-D represent": lambda: double(TWO_POINT).represent([[1.0, 2.0], [3.0, 4.0]]),
    "huge t_final": lambda: toda_integrate([0.0], [0.0], 1e300, 1.0),
    "huge step count": lambda: toda_run_discrete(STATE, 2**62),
    "short t_final": lambda: discrete_continuum_orders(BUMP, np.zeros(4), t_final=0.01),
    "string t_final": lambda: discrete_continuum_orders(BUMP, np.zeros(4), t_final="1"),
    "huge int spacing": lambda: LatticeSpec((10**400,), ((0, 3),)),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_bad_inputs_raise_validation_error(name):
    with pytest.raises(ValidationError):
        REJECTED[name]()


# Finite inputs whose arithmetic overflows.
HUGE = LatticeField(LINE.with_window(((0, 2),)), np.array([1e308, -1e308]))
HUGE_EXACT = FormExpr({(0, 1): 10**400})
OVERFLOWING = {
    "1e-320 source": lambda: current_ladder(LatticeField.constant(PLANE, 1e-320)),
    "float scalar times form": lambda: 1e200 * FormExpr({(0, 1): 1e200}),
    "sum of forms": lambda: FormExpr({(0, 1): 1e308}) + FormExpr({(0, 1): 1e308}),
    "product of forms": lambda: build_universal(2).multiply(
        FormExpr({(0,): 1e200}), FormExpr({(0, 1): 1e200})
    ),
    "differential of a form": lambda: build_universal(2).differential(
        FormExpr({(0,): 1e308, (1,): -1e308})
    ),
    "complex scalar times form": lambda: (1e200 + 0j) * FormExpr({(0, 1): 1e200 + 1e200j}),
    "float scalar times huge int": lambda: 1.5 * HUGE_EXACT,
    "huge int plus float": lambda: HUGE_EXACT + FormExpr({(0, 1): 1.5}),
    "huge int times float": lambda: build_universal(2).multiply(
        FormExpr({(0,): 1.5}), HUGE_EXACT
    ),
    "lattice derivative": lambda: exterior_derivative(HUGE),
    "lattice field squared": lambda: HUGE * HUGE,
    "lattice inverse": lambda: LatticeField(LINE, np.full(4, 1e-320)).inverse(),
    "commutator": lambda: commutator_norm([[0, 1e300], [1e300, 0]], [0.0, 1e10]),
    "float scalar times numpy float": lambda: 1e200 * FormExpr({(0, 1): np.float64(1e200)}),
    "numpy float32 product": lambda: build_universal(2).multiply(
        FormExpr({(0,): np.float32(1e20)}), FormExpr({(0, 1): np.float32(1e20)})
    ),
    "numpy complex sum": lambda: FormExpr({(0, 1): np.complex128(1e308)})
    + FormExpr({(0, 1): np.complex128(1e308)}),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_inputs_raise_numeric_error(name):
    with pytest.raises(NumericError, match="non-finite"):
        OVERFLOWING[name]()


def test_numpy_scalar_overflow_raises_numeric_error():
    # once stored np.float64(inf) after numpy's overflow warning
    form = FormExpr({(0, 1): np.float64(1e200)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite"):
            1e200 * form
    # where warnings are only shown, numpy warns and the result is refused
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericError, match="non-finite"):
            1e200 * form


def test_huge_int_length_in_a_graph_file_raises_validation_error(tmp_path):
    # a 401-digit length once escaped as a bare OverflowError
    path = tmp_path / "g.json"
    path.write_text(
        '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, ' + "1" * 401 + "]]}"
    )
    with pytest.raises(ValidationError, match="within float range"):
        load_digraph(path)


@pytest.mark.parametrize(
    "d",
    [two_point(1e300), two_point(1e200), np.array([[0, 1e-300], [1e-300, 0]])],
    ids=["1e300", "1e200", "symmetric_1e-300"],
)
def test_extreme_two_point_operators_bracket_the_closed_form(d):
    # the distance of two points is 1 / max(D01, D10), a finite double here;
    # these operators once overflowed or lost positive definiteness
    sol = distance(DistanceProblem(d, 0, 1))
    exact = 1.0 / max(d[0, 1], d[1, 0])
    assert sol.status == "certified"
    assert sol.value <= exact <= sol.upper_bound
    assert sol.upper_bound - sol.value <= 1e-9 * sol.upper_bound


# Validation branches that no other test reaches.
UNREACHED = {
    "empty FiniteSet": lambda: FiniteSet(()),
    "repeated labels": lambda: FiniteSet(("a", "a")),
    "unknown label": lambda: FiniteSet(("a", "b")).index_of("c"),
    "arrow not a pair": lambda: Digraph(FiniteSet.of_size(3), frozenset({(0, 1, 2)})),
    "arrow out of range": lambda: Digraph.from_arrows(2, [(0, 2)]),
    "self loop": lambda: Digraph.from_arrows(2, [(1, 1)]),
    "empty path": lambda: FormExpr({(): 1}),
    "path not a tuple": lambda: FormExpr({"01": 1}),
    "repeated vertex": lambda: FormExpr.from_path((0, 0, 1)),
    "degree_cap 0": lambda: calculus_for(Digraph.from_arrows(2, [(0, 1)]), 0),
    "short function": lambda: function_differential(
        [1, 2], calculus_for(Digraph.from_arrows(3, [(0, 1)]))
    ),
    "window dimension": lambda: LatticeSpec((1.0, 1.0), ((0, 3),)),
    "window not pairs": lambda: LatticeSpec((1.0,), ((0, 3, 5),)),
    "windows across dimensions": lambda: LINE_FIELD + LatticeField.constant(PLANE, 1.0),
    "ragged chain": lambda: toda_force([[0.0], [0.0, 1.0]], 1.0),
    "complex oracle above 4 points": lambda: oracle_distance(
        DistanceProblem(np.diag(np.ones(4), 1), 0, 1), complex_functions=True
    ),
    "field shape": lambda: LatticeField(LINE, np.zeros(3)),
    "non-square field values": lambda: LatticeField(LINE, np.zeros((4, 2, 3))),
    "index outside window": lambda: LINE_FIELD[4],
    "one-form component count": lambda: LatticeOneForm((LINE_FIELD, LINE_FIELD)),
    "no one-form components": lambda: LatticeOneForm(()),
    "non-square adjacency": lambda: AdjacencyMatrix(np.zeros((2, 3))),
    "non-square operator": lambda: base_matrix(np.zeros((2, 3))),
    "represent length": lambda: double(TWO_POINT).represent([1.0, 2.0, 3.0]),
    "slice shapes differ": lambda: TodaState(BUMP, BUMP[:3], 0.5, 1.0),
    "arrows not iterable": lambda: Digraph(FiniteSet.of_size(3), 5),
    "calculus of arrows": lambda: calculus_for([(0, 1)]),
    "fractional dimension degree": lambda: ARROW_CALCULUS.dimension(1.5),
    "float relations degree": lambda: ARROW_CALCULUS.relations(1.0),
    "string basis degree": lambda: ARROW_CALCULUS.basis("a"),
    "bool dimension degree": lambda: ARROW_CALCULUS.dimension(True),
    "int operand": lambda: ARROW_CALCULUS.multiply(1, ARROW_CALCULUS.unit()),
    "dict operand": lambda: ARROW_CALCULUS.differential({(0, 1): 1}),
    "list of terms": lambda: FormExpr([((0, 1), 1)]),
    "arrow not a pair in reduce": lambda: reduce(build_universal(3), [5]),
    "FiniteSet of an int": lambda: FiniteSet(5),
    "unhashable labels": lambda: FiniteSet([[1], [2]]),
    "Digraph on an int": lambda: Digraph(5, []),
    # lattice and sigma-model inputs once let out as bare Python or numpy
    # errors, or accepted
    "string field values": lambda: LatticeField(LINE, ["a", "b", "c", "d"]),
    "object field values": lambda: LatticeField(LINE, [None, 1, 2, 3]),
    "ragged field values": lambda: LatticeField(LINE, [[1], [1, 2], [1], [1]]),
    "field on an int spec": lambda: LatticeField(5, [1, 2]),
    "one-form of ints": lambda: LatticeOneForm((1, 2)),
    "window intersected with an int": lambda: intersect_windows(((0, 1),), 5),
    "field restricted to an int": lambda: LINE_FIELD.restricted(5),
    "1-D star": lambda: star(LINE_FORM),
    "1-D d_one_form": lambda: d_one_form(LINE_FORM),
    "1-D one_form_product": lambda: one_form_product(LINE_FORM, LINE_FORM),
    "1-D field_residual": lambda: field_residual(LINE_FORM),
    "1-D potential": lambda: potential(LINE_FORM),
    "1-D invert_star_d": lambda: invert_star_d(LINE_FORM),
    "1-D covariant_derivative": lambda: covariant_derivative(LINE_FIELD, LINE_FORM),
    "float h in star": lambda: star(PLANE_FORM, 1.0),
    "float h in field_residual": lambda: field_residual(PLANE_FORM, 1.0),
    "float h in invert_star_d": lambda: invert_star_d(PLANE_FORM, 1.0),
    "float h in current_ladder": lambda: current_ladder(PLANE_FIELD, 1.0),
    "one-form of an int": lambda: LatticeOneForm(5),
    "one-form minus an int": lambda: PLANE_FORM - 5,
    "field_residual of a field": lambda: field_residual(PLANE_FIELD),
    "potential of a field": lambda: potential(PLANE_FIELD),
    "invert_star_d of a field": lambda: invert_star_d(PLANE_FIELD),
    "covariant_derivative of a one-form": lambda: covariant_derivative(PLANE_FORM, PLANE_FORM),
    "maurer_cartan of a one-form": lambda: maurer_cartan(PLANE_FORM),
    "current_ladder of a one-form": lambda: current_ladder(PLANE_FORM),
    "scalar plus matrix field": lambda: PLANE_FIELD + PLANE_2X2,
    "matrix minus scalar field": lambda: PLANE_2X2 - PLANE_FIELD,
    "2x2 plus 3x3 field": lambda: PLANE_2X2 + PLANE_3X3,
    "2x2 minus 3x3 field": lambda: PLANE_2X2 - PLANE_3X3,
    "2x2 times 3x3 field": lambda: PLANE_2X2 * PLANE_3X3,
    "field plus a string": lambda: PLANE_FIELD + "a",
    "field times None": lambda: PLANE_FIELD * None,
    "field over a string": lambda: PLANE_FIELD / "a",
    "field plus a list": lambda: PLANE_FIELD + [1, 2],
    "scalar chi, matrix connection": lambda: covariant_derivative(
        PLANE_FIELD, exterior_derivative(PLANE_2X2)
    ),
    # matrix, calculus and Toda inputs likewise
    "string double": lambda: double(np.array([["a", "b"], ["c", "d"]])),
    "grading of another size": lambda: DoubledOperator(DOUBLED.block, np.eye(3)),
    "string grading": lambda: DoubledOperator(DOUBLED.block, np.full((4, 4), "a")),
    "verify_triple of an array": lambda: verify_triple(np.eye(2)),
    "adjacency of an int": lambda: AdjacencyMatrix.from_digraph(5),
    "int lengths": lambda: AdjacencyMatrix.from_digraph(ARROW, lengths=5),
    "int coefficient path": lambda: FormExpr({(0,): 1}).coefficient(5),
    "int function values": lambda: build_universal(2).function_differential(5),
    "reduce of an int": lambda: reduce(5, []),
    "scalar chain force": lambda: toda_force(1.0, 1.0),
    "int time range": lambda: two_dim_spec(0.5, 1.0, 5, (0, 3)),
}


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_unreached_validation_branches(name):
    with pytest.raises(ValidationError):
        UNREACHED[name]()


def test_list_labels_and_arrows_are_stored_hashable():
    # each was once kept as a list, which made the digraph unhashable
    graph = Digraph(FiniteSet(["a", "b", "c"]), [(0, 1), [1, 2]])
    assert graph.base.labels == ("a", "b", "c")
    assert graph.arrows == frozenset({(0, 1), (1, 2)})
    assert hash(graph) == hash(Digraph(FiniteSet(("a", "b", "c")), {(1, 2), (0, 1)}))
    lengths = {(0, 1): 2.0}
    assert AdjacencyMatrix.from_digraph(graph, lengths).entries[0, 1] == 0.5


def test_products_past_the_top_degree_vanish():
    # the 3-cycle 0 -> 1 -> 2 -> 0 has dimensions [3, 3, 0], so every 2-form is 0
    calc = calculus_for(Digraph.from_arrows(3, [(0, 1), (1, 2), (2, 0)]))
    assert calc.dimensions() == [3, 3, 0]
    product = multiply(FormExpr.from_path((0, 1)), FormExpr.from_path((1, 2, 0)), calc)
    assert product == FormExpr()


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, complex(0, math.inf), "a", None, True], ids=repr
)
def test_function_differential_names_the_bad_value(value):
    # each was once accepted, some as a nan or inf coefficient, or raised a bare TypeError
    with pytest.raises(ValidationError, match=f"function value {value!r} "):
        function_differential([value, 0], ARROW_CALCULUS)


def test_function_differential_keeps_exact_values_exact():
    df = function_differential([Fraction(1, 3), 2], ARROW_CALCULUS)
    assert df.terms == {(0, 1): Fraction(5, 3)}
    assert type(df.terms[(0, 1)]) is Fraction
    huge = function_differential([0, 10**400], ARROW_CALCULUS)  # past float range
    assert huge.terms == {(0, 1): 10**400}
    assert function_differential([0, 1.5 + 2j], ARROW_CALCULUS).terms == {(0, 1): 1.5 + 2j}

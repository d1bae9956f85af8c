"""Deformed differential calculus on finite windows of Z^n.

Fields live on rectangular index windows; every shift-consuming operation
returns its result on the largest window where it is defined instead of
assuming an infinite lattice.  Forward differences realize the left partial
derivatives of the calculus, and moving a coefficient past a differential
shifts its argument by one spacing.

Values may be scalars or uniform k x k matrices; `*` multiplies pointwise,
using the matrix product for matrix-valued fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, overflow_is_numeric, positive_real

Window = tuple[tuple[int, int], ...]

STRUCTURE_TOL = 1e-12


def intersect_windows(a: Window, b: Window) -> Window:
    try:
        if len(a) != len(b):
            raise ValidationError("window dimensions differ")
        out = []
        for (lo1, hi1), (lo2, hi2) in zip(a, b):
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo >= hi:
                raise ValidationError(f"windows {a} and {b} have empty intersection")
            out.append((lo, hi))
    except ValidationError:
        raise
    except (TypeError, ValueError):  # not sequences of bound pairs
        raise ValidationError(f"{a!r} and {b!r} are not windows") from None
    return tuple(out)


def values_on(values: np.ndarray, start, window: Window) -> np.ndarray:
    """View of the values, whose first site is `start`, on a window inside theirs."""
    return values[tuple(slice(lo - s, hi - s) for (lo, hi), s in zip(window, start))]


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: spacings and index window; the site with index k
    sits at coordinate spacing * k on each axis."""

    spacings: tuple
    window: Window

    def __post_init__(self):
        try:
            sp = tuple(positive_real(s, "spacings") for s in self.spacings)
            win = tuple(
                (integer(lo, "each window bound"), integer(hi, "each window bound"))
                for lo, hi in self.window
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:  # not sequences, or not pairs
            raise ValidationError(f"malformed spacings or window: {exc}") from None
        if len(win) != len(sp):
            raise ValidationError("window and spacings dimensions differ")
        if any(lo >= hi for lo, hi in win):
            raise ValidationError("window must be nonempty on every axis")
        object.__setattr__(self, "spacings", sp)
        object.__setattr__(self, "window", win)

    @property
    def n(self) -> int:
        return len(self.spacings)

    @property
    def shape(self) -> tuple:
        return tuple(hi - lo for lo, hi in self.window)

    @property
    def start(self) -> tuple:
        """The lattice index of the window's first site."""
        return tuple(lo for lo, _ in self.window)

    def with_window(self, window: Window) -> "LatticeSpec":
        return LatticeSpec(self.spacings, window)


class LatticeField:
    """Scalar or square-matrix-valued function on a lattice window."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: LatticeSpec, values):
        if not isinstance(spec, LatticeSpec):
            raise ValidationError("a field needs a LatticeSpec")
        try:
            values = np.asarray(values)
        except ValueError as exc:  # ragged nesting
            raise ValidationError(f"field values must be an array: {exc}") from None
        # ints, floats and complex; values need not be finite
        if values.dtype.kind not in "iufc":
            raise ValidationError(f"field values must be numbers, not {values.dtype}")
        if values.shape[: spec.n] != spec.shape:
            raise ValidationError(
                f"values shape {values.shape} does not cover window {spec.window}"
            )
        extra = values.shape[spec.n :]
        if extra and (len(extra) != 2 or extra[0] != extra[1]):
            raise ValidationError("matrix values must be square")
        self.spec = spec
        self.values = values

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, spec: LatticeSpec, value) -> "LatticeField":
        value = np.asarray(value)
        vals = np.broadcast_to(value, spec.shape + value.shape).copy()
        return cls(spec, vals)

    @classmethod
    def identity(cls, spec: LatticeSpec, k: int | None = None) -> "LatticeField":
        return cls.constant(spec, 1.0 if k is None else np.eye(k))

    @classmethod
    def coordinate(cls, spec: LatticeSpec, axis: int) -> "LatticeField":
        lo, hi = spec.window[axis]
        line = spec.spacings[axis] * np.arange(lo, hi)
        shape = [1] * spec.n
        shape[axis] = hi - lo
        vals = np.broadcast_to(line.reshape(shape), spec.shape).copy()
        return cls(spec, vals)

    # -- structure ------------------------------------------------------

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim > self.spec.n

    @property
    def matrix_dim(self) -> int | None:
        return self.values.shape[-1] if self.is_matrix else None

    def __getitem__(self, index):
        """Value at an absolute lattice index: a tuple of `spec.n` integers,
        or one integer on a 1-D field."""
        if not isinstance(index, tuple):
            index = (index,)
        if len(index) != self.spec.n:
            raise ValidationError(f"index {index} must have {self.spec.n} coordinates")
        rel = tuple(
            integer(i, "each lattice index") - lo for i, (lo, _) in zip(index, self.spec.window)
        )
        for r, size in zip(rel, self.spec.shape):
            if not 0 <= r < size:
                raise ValidationError(f"index {index} outside window {self.spec.window}")
        return self.values[rel]

    def _values_on(self, window: Window) -> np.ndarray:
        """View of the values on a window inside this field's window."""
        return values_on(self.values, self.spec.start, window)

    def restricted(self, window: Window) -> "LatticeField":
        window = intersect_windows(self.spec.window, window)
        return LatticeField(self.spec.with_window(window), self._values_on(window))

    def shift(self, axis: int, steps: int = 1) -> "LatticeField":
        """Field g(i) = f(i + steps on the axis), on the translated window."""
        if not 0 <= integer(axis, "the shift axis") < self.spec.n:
            raise ValidationError(f"shift axis {axis} outside 0 .. {self.spec.n - 1}")
        steps = integer(steps, "the shift steps")
        lo, hi = self.spec.window[axis]
        new = list(self.spec.window)
        new[axis] = (lo - steps, hi - steps)
        return LatticeField(self.spec.with_window(tuple(new)), self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    # -- arithmetic -------------------------------------------------------

    @overflow_is_numeric
    def _binary(self, other, op, matmul: bool):
        if isinstance(other, LatticeField):
            win = intersect_windows(self.spec.window, other.spec.window)
            a = self._values_on(win)
            b = other._values_on(win)
            if matmul and self.is_matrix and other.is_matrix:
                vals = a @ b
            else:
                if matmul and self.is_matrix != other.is_matrix:
                    # scalar field times matrix field: broadcast over entries
                    if self.is_matrix:
                        b = b[..., None, None]
                    else:
                        a = a[..., None, None]
                vals = op(a, b)
            return LatticeField(self.spec.with_window(win), vals)
        return LatticeField(self.spec, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add, matmul=False)

    def __sub__(self, other):
        return self._binary(other, np.subtract, matmul=False)

    def __mul__(self, other):
        return self._binary(other, np.multiply, matmul=True)

    def __rmul__(self, scalar):
        return self._binary(scalar, np.multiply, matmul=False)

    def __truediv__(self, scalar):
        return self._binary(scalar, np.divide, matmul=False)

    @overflow_is_numeric
    def inverse(self) -> "LatticeField":
        """Pointwise inverse; matrix fields invert sitewise."""
        return LatticeField(self.spec, invert_values(self.values, self.spec.window))


def invert_values(values: np.ndarray, window: Window) -> np.ndarray:
    """Sitewise inverse of the values of a field on `window`: the matrix
    inverse for matrix values.  ValidationError names the first site whose
    value is zero or singular."""
    if values.ndim > len(window):
        try:
            return np.linalg.inv(values)
        except np.linalg.LinAlgError:
            dets = np.linalg.det(values)
            bad = np.argwhere(np.abs(dets) < np.finfo(float).tiny)
            site = _site(bad[0], window) if len(bad) else "unknown site"
            raise ValidationError(f"singular matrix value at {site}") from None
    if not values.all():
        site = _site(np.argwhere(values == 0)[0], window)
        raise ValidationError(f"zero value at lattice site {site}")
    return 1.0 / values


def _site(offsets, window: Window) -> tuple:
    """Lattice index of the value at array offsets into a field on `window`."""
    return tuple(int(b) + lo for b, (lo, _) in zip(offsets, window))


@dataclass(frozen=True)
class LatticeOneForm:
    """One-form w = sum_mu w_mu dx^mu with left-module coefficient fields."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValidationError("one-form needs at least one component")
        if not all(isinstance(c, LatticeField) for c in comps):
            raise ValidationError("one-form components must be LatticeFields")
        n = comps[0].spec.n
        if len(comps) != n:
            raise ValidationError("component count must equal the lattice dimension")
        win = comps[0].spec.window
        for c in comps[1:]:
            win = intersect_windows(win, c.spec.window)
        comps = tuple(c if c.spec.window == win else c.restricted(win) for c in comps)
        object.__setattr__(self, "components", comps)

    @property
    def spec(self) -> LatticeSpec:
        return self.components[0].spec

    def __sub__(self, other):
        return LatticeOneForm(
            tuple(a - b for a, b in zip(self.components, other.components))
        )

    def max_abs(self) -> float:
        # np.max keeps a nan of any component; the builtin max drops a later one
        return float(np.max([c.max_abs() for c in self.components]))


# -- derivatives -----------------------------------------------------------


def forward_derivative(f: LatticeField, axis: int) -> LatticeField:
    """Right discrete derivative (f(x + l_mu) - f(x)) / l_mu."""
    return (f.shift(axis, 1) - f) / f.spec.spacings[axis]


def exterior_derivative(f: LatticeField) -> LatticeOneForm:
    return LatticeOneForm(
        tuple(forward_derivative(f, ax) for ax in range(f.spec.n))
    )


# -- structure functions ---------------------------------------------------


@dataclass(frozen=True)
class StructureTensor:
    """Constant structure functions C[mu, nu, kappa] of [dx^mu, x^nu]."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValidationError("structure tensor must be n x n x n")
        object.__setattr__(self, "coefficients", c)

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    def matrix(self, mu: int) -> np.ndarray:
        """(C^mu)^nu_kappa as an n x n matrix."""
        return self.coefficients[mu]


@dataclass(frozen=True)
class StructureReport:
    symmetry_residual: float
    commutation_residual: float
    ok: bool


def lattice_structure_tensor(spacings) -> StructureTensor:
    """The hypercubic-lattice tensor: C[mu, nu, kappa] = l^mu at mu=nu=kappa."""
    sp = [float(s) for s in spacings]
    n = len(sp)
    c = np.zeros((n, n, n))
    for mu in range(n):
        c[mu, mu, mu] = sp[mu]
    return StructureTensor(c)


def check_structure_consistency(c: StructureTensor) -> StructureReport:
    """Symmetry in the upper indices and pairwise commuting C^mu matrices."""
    arr = c.coefficients
    sym = float(np.max(np.abs(arr - arr.transpose(1, 0, 2)), initial=0.0))
    comm = 0.0
    for mu in range(c.n):
        for nu in range(mu + 1, c.n):
            a, b = c.matrix(mu), c.matrix(nu)
            comm = max(comm, float(np.max(np.abs(a @ b - b @ a), initial=0.0)))
    ok = sym <= STRUCTURE_TOL and comm <= STRUCTURE_TOL
    return StructureReport(sym, comm, ok=ok)


def metric_from_structure(c: StructureTensor) -> np.ndarray:
    """g^{mu nu} = Tr(C^mu C^nu); symmetric by trace cyclicity."""
    return np.einsum("mab,nba->mn", c.coefficients, c.coefficients)

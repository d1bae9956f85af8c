"""Deformed differential calculus on finite windows of Z^n.

Fields live on rectangular index windows; every shift-consuming operation
returns its result on the largest window where it is defined instead of
assuming an infinite lattice.  Forward differences realize the left partial
derivatives of the calculus, backward differences the right ones, and moving
a coefficient past a differential shifts its argument by one spacing.

Values may be scalars or uniform k x k matrices; `*` multiplies pointwise,
using the matrix product for matrix-valued fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

Window = tuple[tuple[int, int], ...]


def intersect_windows(a: Window, b: Window) -> Window:
    if len(a) != len(b):
        raise ValidationError("window dimensions differ")
    out = []
    for (lo1, hi1), (lo2, hi2) in zip(a, b):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo >= hi:
            raise ValidationError(f"windows {a} and {b} have empty intersection")
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: spacings, index window, embedding base point."""

    spacings: tuple
    window: Window
    base_point: tuple = None

    def __post_init__(self):
        sp = tuple(float(s) for s in self.spacings)
        if any(s <= 0 for s in sp):
            raise ValidationError("spacings must be strictly positive")
        win = tuple((int(lo), int(hi)) for lo, hi in self.window)
        if len(win) != len(sp):
            raise ValidationError("window and spacings dimensions differ")
        if any(lo >= hi for lo, hi in win):
            raise ValidationError("window must be nonempty on every axis")
        bp = self.base_point
        bp = tuple(0.0 for _ in sp) if bp is None else tuple(float(x) for x in bp)
        if len(bp) != len(sp):
            raise ValidationError("base point dimension mismatch")
        object.__setattr__(self, "spacings", sp)
        object.__setattr__(self, "window", win)
        object.__setattr__(self, "base_point", bp)

    @property
    def n(self) -> int:
        return len(self.spacings)

    @property
    def shape(self) -> tuple:
        return tuple(hi - lo for lo, hi in self.window)

    def with_window(self, window: Window) -> "LatticeSpec":
        return LatticeSpec(self.spacings, window, self.base_point)

    def coordinate(self, axis: int, index: int) -> float:
        return self.base_point[axis] + self.spacings[axis] * index


def line_spec(spacing: float, lo: int, hi: int, x0: float = 0.0) -> LatticeSpec:
    return LatticeSpec((spacing,), ((lo, hi),), (x0,))


class LatticeField:
    """Scalar or square-matrix-valued function on a lattice window."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: LatticeSpec, values):
        values = np.asarray(values)
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
    def from_function(cls, spec: LatticeSpec, fn) -> "LatticeField":
        """Sample fn at the embedded coordinates of every window index."""
        vals = np.empty(spec.shape, dtype=float)
        starts = [lo for lo, _ in spec.window]
        for idx in np.ndindex(*spec.shape):
            coords = [
                spec.coordinate(ax, starts[ax] + idx[ax]) for ax in range(spec.n)
            ]
            vals[idx] = fn(*coords)
        return cls(spec, vals)

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
        line = spec.base_point[axis] + spec.spacings[axis] * np.arange(lo, hi)
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
        """Value at an absolute lattice index tuple."""
        if self.spec.n == 1 and isinstance(index, int):
            index = (index,)
        rel = tuple(i - lo for i, (lo, _) in zip(index, self.spec.window))
        for r, size in zip(rel, self.spec.shape):
            if not 0 <= r < size:
                raise ValidationError(f"index {index} outside window {self.spec.window}")
        return self.values[rel]

    def restricted(self, window: Window) -> "LatticeField":
        window = intersect_windows(self.spec.window, window)
        sl = tuple(
            slice(lo - mylo, hi - mylo)
            for (lo, hi), (mylo, _) in zip(window, self.spec.window)
        )
        return LatticeField(self.spec.with_window(window), self.values[sl])

    def shift(self, axis: int, steps: int = 1) -> "LatticeField":
        """Field g(i) = f(i + steps on the axis), on the translated window."""
        lo, hi = self.spec.window[axis]
        new = list(self.spec.window)
        new[axis] = (lo - steps, hi - steps)
        return LatticeField(self.spec.with_window(tuple(new)), self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    # -- arithmetic -------------------------------------------------------

    def _binary(self, other, op, matmul: bool):
        if isinstance(other, LatticeField):
            win = intersect_windows(self.spec.window, other.spec.window)
            a = self.restricted(win).values
            b = other.restricted(win).values
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

    def __radd__(self, other):
        return self._binary(other, np.add, matmul=False)

    def __sub__(self, other):
        return self._binary(other, np.subtract, matmul=False)

    def __mul__(self, other):
        return self._binary(other, np.multiply, matmul=True)

    def __rmul__(self, scalar):
        return LatticeField(self.spec, scalar * self.values)

    def __truediv__(self, scalar):
        return LatticeField(self.spec, self.values / scalar)

    def __neg__(self):
        return LatticeField(self.spec, -self.values)

    def inverse(self) -> "LatticeField":
        """Pointwise inverse; matrix fields invert sitewise."""
        if self.is_matrix:
            try:
                vals = np.linalg.inv(self.values)
            except np.linalg.LinAlgError:
                raise ValidationError(
                    f"singular matrix value at {self._first_singular_site()}"
                ) from None
        else:
            if np.any(self.values == 0):
                bad = np.argwhere(self.values == 0)[0]
                site = tuple(
                    int(b) + lo for b, (lo, _) in zip(bad, self.spec.window)
                )
                raise ValidationError(f"zero value at lattice site {site}")
            vals = 1.0 / self.values
        return LatticeField(self.spec, vals)

    def _first_singular_site(self):
        dets = np.linalg.det(self.values)
        bad = np.argwhere(np.abs(dets) < np.finfo(float).tiny)
        if len(bad) == 0:
            return "unknown site"
        return tuple(int(b) + lo for b, (lo, _) in zip(bad[0], self.spec.window))


@dataclass(frozen=True)
class LatticeOneForm:
    """One-form w = sum_mu w_mu dx^mu with left-module coefficient fields."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValidationError("one-form needs at least one component")
        n = comps[0].spec.n
        if len(comps) != n:
            raise ValidationError("component count must equal the lattice dimension")
        win = comps[0].spec.window
        for c in comps[1:]:
            win = intersect_windows(win, c.spec.window)
        comps = tuple(c.restricted(win) for c in comps)
        object.__setattr__(self, "components", comps)

    @property
    def spec(self) -> LatticeSpec:
        return self.components[0].spec

    def __add__(self, other):
        return LatticeOneForm(
            tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other):
        return LatticeOneForm(
            tuple(a - b for a, b in zip(self.components, other.components))
        )

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)


# -- derivative and integral operations ----------------------------------


def forward_derivative(f: LatticeField, axis: int) -> LatticeField:
    """Right discrete derivative (f(x + l_mu) - f(x)) / l_mu."""
    return (f.shift(axis, 1) - f) / f.spec.spacings[axis]


def backward_derivative(f: LatticeField, axis: int) -> LatticeField:
    """Left discrete derivative (f(x) - f(x - l_mu)) / l_mu."""
    return (f - f.shift(axis, -1)) / f.spec.spacings[axis]


def commute_past(f: LatticeField, axis: int, steps: int = 1) -> LatticeField:
    """Coefficient shuffled past dx^axis: returns f(. + steps * l_axis)."""
    return f.shift(axis, steps)


def exterior_derivative(f: LatticeField) -> LatticeOneForm:
    return LatticeOneForm(
        tuple(forward_derivative(f, ax) for ax in range(f.spec.n))
    )


def definite_integral(f: LatticeField, m: int, n: int, origin: int = 0) -> float:
    """l * sum of f over indices origin-m .. origin+n-1 (1-D fields only)."""
    if f.spec.n != 1:
        raise ValidationError("definite_integral expects a 1-D field")
    lo, hi = f.spec.window[0]
    a, b = origin - m, origin + n
    if a < lo or b > hi:
        raise ValidationError(
            f"integration range [{a}, {b}) outside window [{lo}, {hi})"
        )
    seg = f.values[a - lo : b - lo]
    return f.spec.spacings[0] * seg.sum(axis=0)


def indefinite_integral(f: LatticeField, pin=0.0) -> LatticeField:
    """F with forward derivative f and F = pin at the left window edge.

    F lives on the same window; the forward-derivative identity therefore
    holds everywhere except the last index.  The remaining freedom (adding a
    lattice constant) is fixed by the pin.
    """
    if f.spec.n != 1:
        raise ValidationError("indefinite_integral expects a 1-D field")
    ell = f.spec.spacings[0]
    cums = np.concatenate([[0.0], np.cumsum(f.values[:-1] * ell)])
    return LatticeField(f.spec, pin + cums)


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


def check_structure_consistency(
    c: StructureTensor, tol: float = 1e-12
) -> StructureReport:
    """Symmetry in the upper indices and pairwise commuting C^mu matrices."""
    arr = c.coefficients
    sym = float(np.max(np.abs(arr - arr.transpose(1, 0, 2)), initial=0.0))
    comm = 0.0
    for mu in range(c.n):
        for nu in range(mu + 1, c.n):
            a, b = c.matrix(mu), c.matrix(nu)
            comm = max(comm, float(np.max(np.abs(a @ b - b @ a), initial=0.0)))
    return StructureReport(sym, comm, ok=(sym <= tol and comm <= tol))


def metric_from_structure(c: StructureTensor) -> np.ndarray:
    """g^{mu nu} = Tr(C^mu C^nu); symmetric by trace cyclicity."""
    return np.einsum("mab,nba->mn", c.coefficients, c.coefficients)

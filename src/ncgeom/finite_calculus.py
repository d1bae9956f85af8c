"""Differential calculi on finite sets presented by digraphs.

The universal calculus on an N point set has one basis form per path with
distinct consecutive vertices; a path (i1, ..., ir) is the (r-1)-form built
by concatenating the edge forms along it.  Choosing a digraph deletes some
edge forms, which restricts the admissible paths and imposes linear
relations generated by the differentials of the deleted edges.  The degree-r
relations are the degree r-1 ones times an arrow plus the generators whose
detour ends the path, so each degree is built from the previous degree's
reduced rows; those generators are needed only for the normal words, the
paths that are not pivots, which form the quotient basis.  Relations are
eliminated exactly, over ints that become `Fraction` only at a pivot other
than +1 or -1, so dimensions and normal forms carry no floating point error.
The build counts the admissible paths of each degree and lists only normal
words; a degree's path list is enumerated when it is first read.

Vertices are 0-based integers throughout; labels are I/O metadata.
Coefficients may be int, Fraction, float or complex; operations stay exact
whenever the inputs are exact.  No sum starts from an implicit zero and no
sign is applied by multiplying by +1 or -1: a path met for the first time
takes its term as it is, a sign is applied as `-c`, and a column new to a
row takes `-(c * v)`.  Over `Fraction`s each implicit-zero step would be a
full operation that only re-creates a value already at hand.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError, finite_number, integer

logger = logging.getLogger(__name__)

DEFAULT_DEGREE_CAP = 6

Path = tuple[int, ...]


@dataclass(frozen=True)
class FiniteSet:
    """A finite base set; labels are arbitrary distinct identifiers."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValidationError("finite set needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("point labels must be distinct")

    @classmethod
    def of_size(cls, n: int) -> "FiniteSet":
        return cls(tuple(range(integer(n, "the point count"))))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown point label {label!r}") from None


def complete_arrows(n: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i in range(n) for j in range(n) if i != j)


@dataclass(frozen=True)
class Digraph:
    """A digraph on a finite set: ordered arrow pairs, no self loops."""

    base: FiniteSet
    arrows: frozenset

    def __post_init__(self):
        n = self.base.n
        for a in self.arrows:
            if not (isinstance(a, tuple) and len(a) == 2):
                raise ValidationError(f"arrow {a!r} is not a pair")
            i, j = integer(a[0], "each arrow vertex"), integer(a[1], "each arrow vertex")
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"arrow {a!r} out of range for {n} points")
            if i == j:
                raise ValidationError(f"self loop {a!r} not allowed")

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[tuple[int, int]]) -> "Digraph":
        return cls(FiniteSet.of_size(n), frozenset(tuple(a) for a in arrows))

    @property
    def n(self) -> int:
        return self.base.n


def _check_path(path) -> Path:
    if not isinstance(path, tuple) or not path:
        raise ValidationError(f"path {path!r} must be a nonempty tuple of vertices")
    for v in path:
        integer(v, "each path vertex")
    for a, b in zip(path, path[1:]):
        if a == b:
            raise ValidationError(f"path {path!r} repeats consecutive vertex {a}")
    return path


class FormExpr:
    """Linear combination of basic path forms, keyed by vertex tuples.

    Zero coefficients are never stored.  The expression is homogeneous when
    all stored paths share a length; `degree` is then that common degree.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Path, complex] | None = None):
        data = {}
        for path, c in (terms or {}).items():
            if c == 0:
                continue
            data[_check_path(path)] = c
        self.terms = data

    @classmethod
    def _of(cls, terms: dict) -> "FormExpr":
        """Wrap, without a copy or a check, a dict that already maps valid
        paths to nonzero coefficients; the two then share the dict."""
        expr = cls.__new__(cls)
        expr.terms = terms
        return expr

    @classmethod
    def from_path(cls, path: Sequence[int]) -> "FormExpr":
        return cls({tuple(path): 1})

    @property
    def degree(self):
        """Common degree of all terms, or None when empty or mixed."""
        degs = {len(p) - 1 for p in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def coefficient(self, path: Sequence[int]):
        return self.terms.get(tuple(path), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FormExpr):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, FormExpr):
            return NotImplemented
        out = dict(self.terms)
        for p, c in other.terms.items():
            old = out.get(p)
            out[p] = c if old is None else old + c
        return FormExpr(out)

    def __rmul__(self, scalar):
        return FormExpr({p: scalar * c for p, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "FormExpr(0)"
        bits = []
        for p in sorted(self.terms, key=lambda q: (len(q), q)):
            bits.append(f"{self.terms[p]!r}*e{list(p)}")
        return "FormExpr(" + " + ".join(bits) + ")"


def _subtract(row: dict, c, prow: dict, lead: Path) -> None:
    """row -= c * prow on every column but `lead`, dropping zero entries.

    A column new to `row` gets -(c * v), stored only when nonzero: a float
    product can underflow to 0.0."""
    for p, v in prow.items():
        if p == lead:
            continue
        old = row.get(p)
        if old is None:
            nv = -(c * v)
            if nv:
                row[p] = nv
            continue
        nv = old - c * v
        if nv:
            row[p] = nv
        else:
            del row[p]


def _rref(rows: list[dict]) -> dict:
    """Exact reduced row echelon form of sparse rows, which it consumes.

    Rows map paths to nonzero coefficients; columns are ordered
    lexicographically by path.  Returns {pivot_path: row_dict} with unit pivots
    and pivot columns cleared from every other row.  A lead of +1 or -1 is its
    own inverse, so int rows stay int until another lead is met.  The back
    substitution takes the pivot rows from the largest lead down; the rows it
    subtracts are then already reduced, so each pivot column is cleared once,
    in any order.
    """
    pivots: dict[Path, dict] = {}
    for row in rows:
        while row:
            lead = min(row)
            if lead not in pivots:
                c = row[lead]
                if c == -1:
                    row = {p: -v for p, v in row.items()}
                elif c != 1:
                    inv = Fraction(1) / c
                    row = {p: v * inv for p, v in row.items()}
                pivots[lead] = row
                break
            _subtract(row, row.pop(lead), pivots[lead], lead)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for p in [p for p in row if p in pivots and p != lead]:
            _subtract(row, row.pop(p), pivots[p], p)
    return pivots


class ReducedCalculus:
    """A digraph calculus: admissible path bases and quotient relations.

    Relations are computed at build time degree by degree, each degree's
    reduced relation rows from the previous degree's (`_relation_pivots`),
    stopping at the first degree whose quotient dimension vanishes
    (`max_degree`) or at `degree_cap`, whichever comes first.  Past the cap
    the calculus reports itself truncated rather than guessing.  The build
    counts each degree's admissible paths, and lists the normal words of
    degree r - 2, the paths that are not pivots, only when the relations of
    degree r need them.  A degree's admissible paths are enumerated, and
    kept, when `basis` or `basis_by_degree` first reads them.
    """

    def __init__(self, graph: Digraph, degree_cap: int = DEFAULT_DEGREE_CAP):
        if integer(degree_cap, "degree_cap") < 1:
            raise ValidationError("degree_cap must be at least 1")
        self.graph = graph
        self.degree_cap = degree_cap
        self._arrows = frozenset(graph.arrows)
        self._deleted = complete_arrows(graph.n) - self._arrows
        n = graph.n
        # out- and in-neighbours of each vertex, in ascending order
        self._out: list[list[int]] = [[] for _ in range(n)]
        self._in: list[list[int]] = [[] for _ in range(n)]
        for i, j in sorted(self._arrows):
            self._out[i].append(j)
            self._in[j].append(i)
        self._path_counts: list[int] = []
        self._bases: list[list[Path]] = [[(i,) for i in range(n)]]
        self._normal_words: list[list[Path]] = [[(i,) for i in range(n)]]
        self.relations_by_degree: list[list[FormExpr]] = []
        self._pivots_by_degree: list[dict] = []
        self.max_degree: int | None = None
        self.truncated = False
        self._build()

    # -- construction -------------------------------------------------

    def _build(self):
        n = self.graph.n
        # two-arrow detours i -> k -> j around each deleted arrow (i, j)
        detours = []
        for (i, j) in sorted(self._deleted):
            mids = [k for k in self._out[i] if (k, j) in self._arrows]
            if mids:
                detours.append((i, j, mids))
        ends = [1] * n  # admissible paths of the current degree, per end vertex
        self._path_counts.append(n)
        self.relations_by_degree.append([])
        self._pivots_by_degree.append({})
        for r in range(1, self.degree_cap + 1):
            pushed = [0] * n
            for count, targets in zip(ends, self._out):
                for j in targets:
                    pushed[j] += count
            ends = pushed
            self._path_counts.append(sum(ends))
            pivots = self._relation_pivots(r, detours)
            self._pivots_by_degree.append(pivots)
            # the relations share the pivot rows: one copy of each, no re-check
            rels = [FormExpr._of(pivots[lead]) for lead in sorted(pivots)]
            self.relations_by_degree.append(rels)
            if self._path_counts[r] - len(rels) == 0:
                self.max_degree = r
                return
        self.truncated = True

    def _basis(self, r: int) -> list[Path]:
        """The degree-r admissible paths in lexicographic order, enumerated
        from the highest degree listed so far and kept."""
        bases = self._bases
        while len(bases) <= r:
            bases.append([p + (j,) for p in bases[-1] for j in self._out[p[-1]]])
        return bases[r]

    def _normal(self, r: int) -> list[Path]:
        """The degree-r normal words, the admissible paths that are not
        pivots, in lexicographic order.  A pivot extended by an arrow is a
        pivot, so they are extended from the highest degree listed so far,
        and kept."""
        words = self._normal_words
        while len(words) <= r:
            pivots = self._pivots_by_degree[len(words)]
            words.append([
                q for w in words[-1] for v in self._out[w[-1]]
                if (q := w + (v,)) not in pivots
            ])
        return words[r]

    @property
    def basis_by_degree(self) -> list[list[Path]]:
        """The admissible paths of every built degree, enumerated on first read."""
        return [self._basis(r) for r in range(len(self._path_counts))]

    def _relation_pivots(self, r: int, detours: list) -> dict:
        """Reduced rows of the degree-r differential ideal on admissible paths.

        The ideal is generated by d(e_ij) for the deleted arrows (i, j).  A
        generator P * d(e_ij) * Q projects onto admissible paths as the sum of
        P + (k,) + Q over the two-arrow detours (i, j, [k, ...]); its other
        terms traverse a deleted arrow.  If Q is longer than the point (j,),
        the generator is a degree r-1 generator times the last arrow of Q.
        So the degree-r span is (i) the degree r-1 span times every arrow,
        plus (ii) the generators P + (k, j) whose detour ends the path.

        (ii) needs only the normal words P of degree r-2, the paths that are
        not pivots.  A pivot P has the reduced row R_P = P + sum_b c_b b over
        normal words b, all ending where P ends.  Each R_P + (k,) lies in the
        degree r-1 span, so R_P + (k, j) lies in (i), and P's generator
        equals minus sum_b c_b times b's generator modulo (i).

        (i) is spanned by the degree r-1 pivot rows, each extended by every
        arrow out of its end vertex.  Appending one arrow is injective on
        paths and keeps their lexicographic order, so the extended rows have
        distinct unit leads and contain no other extended row's lead.  Each
        row of (ii) is therefore reduced against them in one pass over its
        own paths.  The remainders hold no extended lead; one `_rref` call
        eliminates them, and their fresh leads are cleared from the extended
        rows, each in one pass, since the fresh rows hold no lead but their
        own.  A fresh lead in an extended row lies past that row's lead,
        which stays its least path, so rows of one entry need no clearing.

        The union is in reduced row echelon form and spans every degree-r
        generator, so by uniqueness of that form it equals one elimination
        over all of them.
        """
        start = time.perf_counter()
        pivots: dict[Path, dict] = {}
        long_rows: list[dict] = []  # extended rows with more than their lead
        for lead, row in self._pivots_by_degree[r - 1].items():
            if len(row) == 1:
                c = row[lead]
                for v in self._out[lead[-1]]:
                    q = lead + (v,)
                    pivots[q] = {q: c}
                continue
            for v in self._out[lead[-1]]:
                extended = {p + (v,): c for p, c in row.items()}
                pivots[lead + (v,)] = extended
                long_rows.append(extended)
        fresh_rows: list[dict] = []
        if r >= 2 and detours:
            ends: dict[int, list[Path]] = {}
            for P in self._normal(r - 2):
                ends.setdefault(P[-1], []).append(P)
            for i, j, mids in detours:
                for P in ends.get(i, ()):
                    row = {P + (k, j): 1 for k in mids}
                    for p in list(row):
                        prow = pivots.get(p)
                        if prow is not None:
                            _subtract(row, row.pop(p), prow, p)
                    if row:
                        fresh_rows.append(row)
        fresh = _rref(fresh_rows)
        if fresh:
            for row in long_rows:
                for p in [p for p in row if p in fresh]:
                    _subtract(row, row.pop(p), fresh[p], p)
            pivots.update(fresh)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "degree %d: %d paths, %d relations, %d endpoint blocks, "
                "elimination %.6f s",
                r,
                self._path_counts[r],
                len(pivots),
                len({(lead[0], lead[-1]) for lead in pivots}),
                time.perf_counter() - start,
            )
        return pivots

    # -- inspection ---------------------------------------------------

    def _built(self, r: int) -> bool:
        """True when degree r was built, False past `max_degree`, where every
        form is zero; raises below 0 and past the cap of a truncated calculus."""
        if r < 0:
            raise ValidationError(f"degree {r} is negative")
        if r < len(self._path_counts):
            return True
        if self.max_degree is not None:
            return False
        raise ValidationError(
            f"degree {r} beyond cap {self.degree_cap}; calculus is truncated"
        )

    def dimension(self, r: int) -> int:
        if not self._built(r):
            return 0
        return self._path_counts[r] - len(self.relations_by_degree[r])

    def dimensions(self) -> list[int]:
        return [self.dimension(r) for r in range(len(self._path_counts))]

    def basis(self, r: int) -> list[Path]:
        return list(self._basis(r)) if self._built(r) else []

    def relations(self, r: int) -> list[FormExpr]:
        return list(self.relations_by_degree[r]) if self._built(r) else []

    def is_admissible_path(self, path: Path) -> bool:
        if len(path) == 1:
            return 0 <= path[0] < self.graph.n
        return self._arrows.issuperset(zip(path, path[1:]))

    def unit(self) -> FormExpr:
        return FormExpr({(i,): 1 for i in range(self.graph.n)})

    def _require_valid(self, expr: FormExpr):
        for p in expr.terms:
            if not self.is_admissible_path(p):
                raise ValidationError(f"path {p} is not admissible in this calculus")
        for r in {len(p) - 1 for p in expr.terms}:
            self._built(r)

    # -- algebra ------------------------------------------------------

    def _normalized(self, raw: dict) -> FormExpr:
        """Reduce admissible paths modulo the relations.

        Pivot rows are fully reduced, so subtracting one brings in no other
        lead: one visit to each path of the expression clears every lead.
        The result holds admissible paths and no zero, so it is not checked
        again.
        """
        out = {path: c for path, c in raw.items() if c != 0}
        built = {r: self._built(r) for r in {len(p) - 1 for p in out}}
        for p in list(out):
            if not built[len(p) - 1]:
                del out[p]
                continue
            row = self._pivots_by_degree[len(p) - 1].get(p)
            if row is not None:
                _subtract(out, out.pop(p), row, p)
        return FormExpr._of(out)

    def multiply(self, a: FormExpr, b: FormExpr) -> FormExpr:
        """Concatenation product: e_{..i} e_{j..} = delta_ij e_{..i j..}."""
        self._require_valid(a)
        self._require_valid(b)
        out = {}
        for P, ca in a.terms.items():
            for Q, cb in b.terms.items():
                if P[-1] != Q[0]:
                    continue
                path = P + Q[1:]
                term = ca * cb
                old = out.get(path)
                out[path] = term if old is None else old + term
        return self._normalized(out)

    def differential(self, a: FormExpr) -> FormExpr:
        """Insert, at every slot with alternating sign, every vertex that an
        arrow joins to its neighbours there, in ascending order."""
        self._require_valid(a)
        out = {}
        for P, c in a.terms.items():
            signed = (c, -c)
            for pos in range(len(P) + 1):
                term = signed[pos % 2]
                if pos == 0:
                    mids = self._in[P[0]]
                elif pos == len(P):
                    mids = self._out[P[-1]]
                else:
                    right = P[pos]
                    mids = [j for j in self._out[P[pos - 1]] if (j, right) in self._arrows]
                for j in mids:
                    path = P[:pos] + (j,) + P[pos:]
                    old = out.get(path)
                    out[path] = term if old is None else old + term
        return self._normalized(out)

    def function_differential(self, values: Sequence) -> FormExpr:
        """df as a 1-form: sum over arrows of [f(j) - f(i)] e_ij, for finite
        real or complex values; ints and Fractions give exact coefficients."""
        if len(values) != self.graph.n:
            raise ValidationError(
                f"need one value per point, got {len(values)} for {self.graph.n}"
            )
        values = [finite_number(v, "function value") for v in values]
        out = {}
        for (i, j) in sorted(self._arrows):
            c = values[j] - values[i]
            if c != 0:
                out[(i, j)] = c
        return FormExpr(out)


def build_universal(n: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> ReducedCalculus:
    """Universal calculus on n points: the complete digraph, no relations."""
    base = FiniteSet.of_size(n)
    return ReducedCalculus(Digraph(base, complete_arrows(base.n)), degree_cap=degree_cap)


def reduce(
    universal: ReducedCalculus, kept_arrows: Iterable[tuple[int, int]]
) -> ReducedCalculus:
    """Quotient calculus keeping only the given arrows of the complete graph,
    up to the universal calculus's degree cap."""
    kept = frozenset(tuple(a) for a in kept_arrows)
    extra = kept - complete_arrows(universal.graph.n)
    if extra:
        raise ValidationError(f"arrows {sorted(extra)} not in the complete digraph")
    return ReducedCalculus(
        Digraph(universal.graph.base, kept), degree_cap=universal.degree_cap
    )


def calculus_for(graph: Digraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> ReducedCalculus:
    return ReducedCalculus(graph, degree_cap=degree_cap)


def multiply(a: FormExpr, b: FormExpr, calc: ReducedCalculus) -> FormExpr:
    return calc.multiply(a, b)


def differential(a: FormExpr, calc: ReducedCalculus) -> FormExpr:
    return calc.differential(a)


def function_differential(values: Sequence, calc: ReducedCalculus) -> FormExpr:
    return calc.function_differential(values)

"""Differential calculi on finite sets presented by digraphs.

The universal calculus on an N point set has one basis form per path with
distinct consecutive vertices; a path (i1, ..., ir) is the (r-1)-form built
by concatenating the edge forms along it.  Choosing a digraph deletes some
edge forms, which restricts the admissible paths and imposes linear
relations generated by the differentials of the deleted edges.  In reduced
row echelon form each relation row has a lead path, its pivot.  A degree-r
pivot is a degree r-1 pivot extended by an arrow, or the lead of a fresh
row: a generator whose detour ends the path, taken only at the normal words
(the paths that are not pivots, which form the quotient basis) and reduced.
So the build keeps each degree's fresh rows and counts: admissible paths
and normal words per end vertex, pushed along the arrows, the fresh leads
taken off the normal words.  A path that is not a normal word has a fresh
prefix, and its row is that prefix's fresh row extended one arrow at a
time, each step cleared of the new degree's fresh leads.  This is prefix
rewriting with a noncommutative Groebner basis (Mora, Theoret. Comput.
Sci. 134, 1994); normal forms and reads of the relations share one memo of
these rows per calculus.  A degree's relation rows, one per admissible path
that is not a normal word, are listed when first read, and its admissible
paths likewise.  Once the two-sided rules are certified complete, the build
counts the degrees above with Ufnarovski's automaton and eliminates them
only when first needed.  Relations are eliminated exactly, over ints that
become `Fraction` only at a pivot other than +1 or -1, so dimensions and
normal forms carry no floating point error.

Vertices are 0-based integers throughout; labels are I/O metadata.
Coefficients may be int, Fraction, float or complex; operations stay exact
whenever the inputs are exact, and raise NumericError where a float or
complex coefficient overflows.  No sum starts from an implicit zero and no
sign is applied by multiplying by +1 or -1: a path met for the first time
takes its term as it is, a sign is applied as `-c`, and a column new to a
row takes `-(c * v)`.  Over `Fraction`s each implicit-zero step would be a
full operation that only re-creates a value already at hand.
"""

from __future__ import annotations

import cmath
import functools
import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError, finite_number, integer

logger = logging.getLogger(__name__)

DEFAULT_DEGREE_CAP = 6

Path = tuple[int, ...]


@dataclass(frozen=True)
class FiniteSet:
    """A finite base set; labels are distinct identifiers, kept as a tuple."""

    labels: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "labels", tuple(self.labels))
            distinct = len(set(self.labels))
        except TypeError:
            raise ValidationError("point labels must be an iterable of hashables") from None
        if len(self.labels) < 1:
            raise ValidationError("finite set needs at least one point")
        if distinct != len(self.labels):
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
    """A digraph on a finite set: a frozenset of arrow pairs, no self loops."""

    base: FiniteSet
    arrows: frozenset

    def __post_init__(self):
        if not isinstance(self.base, FiniteSet):
            raise ValidationError("a digraph's base must be a FiniteSet")
        try:
            object.__setattr__(self, "arrows", frozenset(map(tuple, self.arrows)))
        except TypeError:
            raise ValidationError("arrows must be an iterable of vertex pairs") from None
        n = self.base.n
        for a in self.arrows:
            if len(a) != 2:
                raise ValidationError(f"arrow {a!r} is not a pair")
            i, j = integer(a[0], "each arrow vertex"), integer(a[1], "each arrow vertex")
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"arrow {a!r} out of range for {n} points")
            if i == j:
                raise ValidationError(f"self loop {a!r} not allowed")

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[tuple[int, int]]) -> "Digraph":
        return cls(FiniteSet.of_size(n), arrows)

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


# the coefficient types that can overflow to inf: float, complex and numpy's
# inexact scalars; ints and Fractions are exact.  Looking the type up in a set
# costs an exact coefficient no more than the type tests it replaced.
_INEXACT = frozenset(
    {float, complex} | {t for t in np.sctypeDict.values() if issubclass(t, np.inexact)}
)


def _finite_terms(fn):
    """Make `fn` raise NumericError where an inexact coefficient of its
    FormExpr is not finite, or where its arithmetic overflows."""

    @functools.wraps(fn)
    def checked(*args):
        try:
            out = fn(*args)
        # an exact coefficient too large for a float, or a numpy scalar's
        # overflow where numpy raises it or warnings are errors
        except (OverflowError, FloatingPointError, RuntimeWarning) as exc:
            raise NumericError(f"non-finite coefficient in {fn.__name__}: {exc}") from None
        for c in () if out is NotImplemented else out.terms.values():
            if type(c) in _INEXACT and not cmath.isfinite(c):
                raise NumericError(f"non-finite coefficient {c!r} in {fn.__name__}")
        return out

    return checked


class FormExpr:
    """Linear combination of basic path forms, keyed by vertex tuples.

    Zero coefficients are never stored.  The expression is homogeneous when
    all stored paths share a length; `degree` is then that common degree.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Path, complex] | None = None):
        if terms is not None and not isinstance(terms, Mapping):
            raise ValidationError("a form's terms must map paths to coefficients")
        data = {}
        for path, c in (terms or {}).items():
            if finite_number(c, "coefficient") != 0:
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
        try:
            return self.terms.get(tuple(path), 0)
        except TypeError:  # not a sequence of hashable vertices
            raise ValidationError(f"path {path!r} must be a sequence of vertices") from None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FormExpr):
            return NotImplemented
        return self.terms == other.terms

    @_finite_terms
    def __add__(self, other):
        if not isinstance(other, FormExpr):
            return NotImplemented
        # both hold checked paths, so only zeros are dropped
        out = dict(self.terms)
        for p, c in other.terms.items():
            old = out.get(p)
            if old is None:
                out[p] = c
            elif total := old + c:
                out[p] = total
            else:
                del out[p]
        return FormExpr._of(out)

    @_finite_terms
    def __rmul__(self, scalar):
        finite_number(scalar, "scalar")
        # a float product can underflow to 0.0, which is not stored
        return FormExpr._of({p: v for p, c in self.terms.items() if (v := scalar * c)})

    def __repr__(self):
        order = sorted(self.terms, key=lambda q: (len(q), q))
        bits = [f"{self.terms[p]!r}*e{list(p)}" for p in order]
        return "FormExpr(" + (" + ".join(bits) or "0") + ")"


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


def _pushed(counts: list[int], out: list[list[int]]) -> list[int]:
    """Counts per vertex of a digraph, given by its out-neighbour lists
    `out`, carried one arrow further."""
    pushed = [0] * len(counts)
    for count, targets in zip(counts, out):
        for j in targets:
            pushed[j] += count
    return pushed


class _Relations(Sequence):
    """View of one degree's relation rows as forms, in lead order: its length
    is the build's count of paths less normal words, the rows listed on read."""

    __slots__ = ("_calc", "_degree")

    def __init__(self, calc: "ReducedCalculus", degree: int):
        self._calc = calc
        self._degree = degree

    def __len__(self):
        return self._calc._path_counts[self._degree] - self._calc.dimension(self._degree)

    def __getitem__(self, index):
        return self._calc._relations(self._degree)[index]


class Certificate(NamedTuple):
    """Whether a calculus's two-sided rewriting rules are known complete, and
    the top degree of the leads found (0 when there are none)."""

    complete: bool
    lead_degree: int


class ReducedCalculus:
    """A digraph calculus: admissible path bases and quotient relations.

    The build goes degree by degree and stops at the first degree whose
    quotient dimension vanishes (`max_degree`) or at `degree_cap`, whichever
    comes first.  Past the cap the calculus reports itself truncated rather
    than guessing.  Each degree keeps its fresh rows (`_fresh_of`), the
    reduced generators whose leads are not pivots of the degree below, and
    two counts: admissible paths, and normal words, which are the degree r-1
    normal words extended by every arrow less the fresh leads.  The
    dimension is the second count.  Nothing else is listed at build time:
    the normal words of degree r - 2 only when the fresh rows of degree r
    need them.

    Every pivot contains a two-sided lead, one whose subwords one arrow
    shorter are not pivots: these are the rules.  A fresh lead L is one
    exactly when L[1:] is not a fresh lead, since L[1:-1] is a subword of
    the normal word L[:-1] and so normal.  Once degrees m+1 .. 2m-1 add none,
    m being the top degree of the rules, they are complete (`certificate`),
    and the degrees above are counted by `_automaton` and eliminated
    (`_fresh_of`) only on first need.  With no rules the automaton is the
    digraph itself, so such a build eliminates no degree.

    A normal form reduces each pivot through its relation row, which
    `_row` alone extends from the pivot's fresh prefix and keeps in a memo.
    A degree's relation rows (`relations_by_degree`, `_pivots_by_degree`)
    are read by `_table` through `_row`, at the admissible paths that are
    not normal words; `_relations` keeps them as forms once listed.  A
    degree's normal words (`_normal`) are one ordered dict, and its
    admissible paths are enumerated, and kept, when first read.
    """

    def __init__(self, graph: Digraph, degree_cap: int = DEFAULT_DEGREE_CAP):
        if integer(degree_cap, "degree_cap") < 1:
            raise ValidationError("degree_cap must be at least 1")
        if not isinstance(graph, Digraph):
            raise ValidationError("a calculus needs a Digraph")
        self.graph = graph
        self.degree_cap = degree_cap
        self._arrows = graph.arrows
        n = graph.n
        # out- and in-neighbours of each vertex, in ascending order
        self._out: list[list[int]] = [[] for _ in range(n)]
        self._in: list[list[int]] = [[] for _ in range(n)]
        for i, j in sorted(self._arrows):
            self._out[i].append(j)
            self._in[j].append(i)
        # the middle vertices k of the two-arrow paths i -> k -> j, ascending
        self._mids: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            for k in self._out[i]:
                for j in self._out[k]:
                    if j != i:
                        self._mids.setdefault((i, j), []).append(k)
        # two-arrow detours i -> k -> j around each deleted arrow (i, j)
        self._detours = [(i, j, ks) for (i, j), ks in sorted(self._mids.items())
                         if (i, j) not in self._arrows]
        self._path_counts: list[int] = [n]
        self._word_counts: list[int] = [n]
        self._bases: list[list[Path]] = [[(i,) for i in range(n)]]
        self._normal_words: list[dict[Path, None]] = [dict.fromkeys(self._bases[0])]
        self._fresh: list[dict[Path, dict]] = [{}]
        self._memo: dict[Path, dict] = {}  # every extended row made so far
        self._forms: dict[int, list[FormExpr]] = {}
        self._admitted: set[Path] = set()  # operand paths checked so far
        self.max_degree: int | None = None
        self.truncated = False
        self._certificate = self._build()

    @property
    def certificate(self) -> Certificate:
        return self._certificate

    # -- construction -------------------------------------------------

    def _build(self) -> Certificate:
        n = self.graph.n
        # the top degree of the two-sided leads so far: 2, that of the
        # generators, or 0 when nothing is deleted
        top = 2 if self._detours else 0
        # None while the build eliminates, then the out-lists of the
        # automaton; with no rules that is the digraph itself
        steps = None if top else self._out
        ends = [1] * n  # admissible paths of the current degree, per end vertex
        words = [1] * n  # and its normal words, per end vertex or automaton state
        for r in range(1, self.degree_cap + 1):
            if steps is None and r > 2 * top - 1:
                steps, words = self._automaton(top, r - 1)
            ends = _pushed(ends, self._out)
            words = _pushed(words, self._out if steps is None else steps)
            if steps is None:
                start = time.perf_counter()
                fresh = self._fresh_of(r)
                elapsed = time.perf_counter() - start
                for lead in fresh:
                    words[lead[-1]] -= 1
                if fresh and r > top:
                    below = self._fresh[r - 1]
                    if any(lead[1:] not in below for lead in fresh):
                        top = r
            paths, dim = sum(ends), sum(words)
            self._path_counts.append(paths)
            self._word_counts.append(dim)
            if steps is None:
                logger.debug(
                    "degree %d: %d paths, %d relations, elimination %.6f s",
                    r, paths, paths - dim, elapsed,
                )
            else:
                logger.debug("degree %d: %d paths, %d relations, counted",
                             r, paths, paths - dim)
            if not dim:
                self.max_degree = r
                break
        self.truncated = self.max_degree is None
        return Certificate(self.max_degree is not None or self.degree_cap >= 2 * top - 1, top)

    def _automaton(self, m: int, r: int) -> tuple[list[list[int]], list[int]]:
        """Ufnarovski's automaton (Math. Notes 31, 1982) for complete rules
        of degree at most m, and its counts of normal words at degree r.

        The rules are complete because every overlap of two leads has degree
        at most 2m - 1 <= r and was resolved by the build (Bergman's diamond
        lemma, Adv. Math. 29, 1978).  So a path of degree m or more is normal
        exactly when each of its degree-m windows is: the states are the
        normal words of degree m - 1, and an arrow v leads from w to the
        last m vertices of w + (v,) when that is a normal word.
        """
        states = {w: k for k, w in enumerate(self._normal(m - 1))}
        window = self._normal(m)
        steps = [[states[q[1:]] for v in self._out[w[-1]] if (q := w + (v,)) in window]
                 for w in states]
        counts = [1] * len(steps)
        for _ in range(m, r + 1):
            counts = _pushed(counts, steps)
        return steps, counts

    def _basis(self, r: int) -> list[Path]:
        """The degree-r admissible paths in lexicographic order, enumerated
        from the highest degree listed so far and kept."""
        bases = self._bases
        while len(bases) <= r:
            bases.append([p + (j,) for p in bases[-1] for j in self._out[p[-1]]])
        return bases[r]

    def _normal(self, r: int) -> dict[Path, None]:
        """The degree-r normal words, the admissible paths that are not
        pivots, as dict keys in lexicographic order.  A pivot extended by an
        arrow is a pivot, and a normal word extended by an arrow is a normal
        word or a fresh lead, so they are extended from the highest degree
        listed so far, and kept; `_build` counts them the same way."""
        words = self._normal_words
        while len(words) <= r:
            fresh = self._fresh_of(len(words))
            words.append(dict.fromkeys([
                q for w in words[-1] for v in self._out[w[-1]]
                if (q := w + (v,)) not in fresh
            ]))
        return words[r]

    @property
    def basis_by_degree(self) -> list[list[Path]]:
        """The admissible paths of every built degree, enumerated on first read."""
        return [self._basis(r) for r in range(len(self._path_counts))]

    def _fresh_of(self, r: int) -> dict[Path, dict]:
        """The degree-r fresh rows, eliminated on first need: the build's
        eliminating degrees and, once the rules are complete, any above."""
        fresh = self._fresh
        while len(fresh) <= r:
            fresh.append(self._fresh_rows(len(fresh)))
        return fresh[r]

    def _fresh_rows(self, r: int) -> dict:
        """The reduced degree-r generators whose leads are not extended pivots.

        The ideal is generated by d(e_ij) for the deleted arrows (i, j).  A
        generator P * d(e_ij) * Q projects onto admissible paths as the sum of
        P + (k,) + Q over the two-arrow detours (i, j, [k, ...]); its other
        terms traverse a deleted arrow.  If Q is longer than the point (j,),
        the generator is a degree r-1 generator times the last arrow of Q.
        So the degree-r span is (i) the degree r-1 span times every arrow,
        plus (ii) the generators P + (k, j) whose detour ends the path.

        (ii) needs only the normal words P of degree r-2.  A pivot P has the
        reduced row R_P = P + sum_b c_b b over normal words b, all ending
        where P ends.  Each R_P + (k,) lies in the degree r-1 span, so
        R_P + (k, j) lies in (i), and P's generator equals minus sum_b c_b
        times b's generator modulo (i).

        (i) is spanned by the degree r-1 pivot rows, each extended by every
        arrow out of its end vertex.  Appending one arrow is injective on
        paths and keeps their lexicographic order, so the extended rows have
        distinct unit leads and contain no other extended row's lead.  A path
        P + (k, j) with P normal is an extended lead exactly when P + (k,) is
        a fresh lead of degree r-1, so each row of (ii) is reduced against
        those fresh rows, extended by j, in one pass over its own paths.  The
        remainders hold no extended lead; one `_rref` call eliminates them
        into the fresh rows, which `_row` then clears from the extended rows.
        """
        rows: list[dict] = []
        if r >= 2 and self._detours:
            ends: dict[int, list[Path]] = {}
            for P in self._normal(r - 2):
                ends.setdefault(P[-1], []).append(P)
            below = self._fresh[r - 1]
            for i, j, mids in self._detours:
                for P in ends.get(i, ()):
                    row = {P + (k, j): 1 for k in mids}
                    for k in mids:
                        prow = below.get(P + (k,))
                        if prow is not None:
                            lead = P + (k, j)
                            extended = {p + (j,): c for p, c in prow.items()}
                            _subtract(row, row.pop(lead), extended, lead)
                    if row:
                        rows.append(row)
        return _rref(rows)

    def _row(self, lead: Path) -> dict:
        """The relation row of a pivot: its fresh row, or the row of the
        pivot one arrow shorter, extended by the last arrow; extended rows
        are memoised, and this is the only code that extends a row.

        The row extended by the arrow is in the degree-r span and holds no
        other extended lead; clearing the fresh leads, each in one pass
        since the fresh rows hold no lead but their own, leaves it reduced;
        a fresh lead is never an extended lead, so the extended lead stays.
        The union of these rows and the fresh rows is in reduced row echelon
        form and spans every degree-r generator, so by uniqueness of that
        form it equals one elimination over all of them.
        """
        row = self._memo.get(lead)
        if row is None:
            fresh = self._fresh_of(len(lead) - 1)
            row = fresh.get(lead)
            if row is None:
                row = {p + lead[-1:]: c for p, c in self._row(lead[:-1]).items()}
                for p in [p for p in row if p in fresh]:
                    _subtract(row, row.pop(p), fresh[p], p)
                self._memo[lead] = row
        return row

    def _table(self, r: int) -> dict[Path, dict]:
        """The degree-r relation rows by lead, in lead order: one per
        admissible path that is not a normal word, read through `_row`."""
        normal = self._normal(r)
        return {p: self._row(p) for p in self._basis(r) if p not in normal}

    @property
    def _pivots_by_degree(self) -> list[dict[Path, dict]]:
        """Every built degree's relation rows by lead, listed on first read."""
        return [self._table(r) for r in range(len(self._path_counts))]

    def _relations(self, r: int) -> list[FormExpr]:
        """The degree-r relations in lead order, sharing the table's rows:
        one copy of each, no re-check."""
        forms = self._forms.get(r)
        if forms is None:
            forms = self._forms[r] = [FormExpr._of(row) for row in self._table(r).values()]
        return forms

    @property
    def relations_by_degree(self) -> list[Sequence[FormExpr]]:
        """Every built degree's relations; `len` of each reads the build's
        count, and the rows are listed when an entry is first read."""
        return [_Relations(self, r) for r in range(len(self._path_counts))]

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
        if not self._built(integer(r, "degree")):
            return 0
        return self._word_counts[r]

    def dimensions(self) -> list[int]:
        return [self.dimension(r) for r in range(len(self._path_counts))]

    def basis(self, r: int) -> list[Path]:
        return list(self._basis(r)) if self._built(integer(r, "degree")) else []

    def relations(self, r: int) -> list[FormExpr]:
        return list(self._relations(r)) if self._built(integer(r, "degree")) else []

    def is_admissible_path(self, path: Path) -> bool:
        if len(path) == 1:
            return 0 <= path[0] < self.graph.n
        return self._arrows.issuperset(zip(path, path[1:]))

    def unit(self) -> FormExpr:
        return FormExpr({(i,): 1 for i in range(self.graph.n)})

    def _require_valid(self, expr: FormExpr):
        """Check each operand path once per calculus: admissible, and of a
        degree that is built or past `max_degree`."""
        if not isinstance(expr, FormExpr):
            raise ValidationError(f"operand {expr!r} is not a FormExpr")
        admitted = self._admitted
        for p in expr.terms:
            if p not in admitted:
                if not self.is_admissible_path(p):
                    raise ValidationError(f"path {p} is not admissible in this calculus")
                self._built(len(p) - 1)
                admitted.add(p)

    # -- algebra ------------------------------------------------------

    def _normalized(self, raw: dict) -> FormExpr:
        """Reduce admissible paths modulo the relations.

        A path that is not a normal word is a pivot, and its relation row
        (`_row`) is fully reduced, so subtracting it brings in no other
        lead: one visit to each path of the expression clears every lead.
        The result holds admissible paths and no zero, so it is not checked
        again.
        """
        out = {path: c for path, c in raw.items() if c != 0}
        normal = {}
        for r in {len(p) - 1 for p in out}:
            if not self._built(r):  # past max_degree every form is zero
                out = {p: c for p, c in out.items() if len(p) - 1 != r}
            elif self._word_counts[r] != self._path_counts[r]:
                normal[r] = self._normal(r)
        if normal:
            memo = self._memo
            for p in list(out):
                words = normal.get(len(p) - 1)
                if words is not None and p not in words:
                    _subtract(out, out.pop(p), memo.get(p) or self._row(p), p)
        return FormExpr._of(out)

    @_finite_terms
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

    @_finite_terms
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
                    mids = self._mids.get((P[pos - 1], P[pos]), ())
                for j in mids:
                    path = P[:pos] + (j,) + P[pos:]
                    old = out.get(path)
                    out[path] = term if old is None else old + term
        return self._normalized(out)

    def function_differential(self, values: Sequence) -> FormExpr:
        """df as a 1-form: sum over arrows of [f(j) - f(i)] e_ij, for finite
        real or complex values; ints and Fractions give exact coefficients."""
        try:
            count = len(values)
        except TypeError:
            raise ValidationError("function values must be a sequence, one per point") from None
        if count != self.graph.n:
            raise ValidationError(f"need one value per point, got {count} for {self.graph.n}")
        values = [finite_number(v, "function value") for v in values]
        return FormExpr({(i, j): values[j] - values[i] for (i, j) in sorted(self._arrows)})


def build_universal(n: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> ReducedCalculus:
    """Universal calculus on n points: the complete digraph, no relations."""
    base = FiniteSet.of_size(n)
    return ReducedCalculus(Digraph(base, complete_arrows(base.n)), degree_cap=degree_cap)


def reduce(
    universal: ReducedCalculus, kept_arrows: Iterable[tuple[int, int]]
) -> ReducedCalculus:
    """Quotient calculus keeping only the given arrows of the complete graph,
    up to the universal calculus's degree cap."""
    if not isinstance(universal, ReducedCalculus):
        raise ValidationError("reduce needs the universal ReducedCalculus")
    return ReducedCalculus(
        Digraph(universal.graph.base, kept_arrows), degree_cap=universal.degree_cap
    )


def calculus_for(graph: Digraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> ReducedCalculus:
    return ReducedCalculus(graph, degree_cap=degree_cap)


def multiply(a: FormExpr, b: FormExpr, calc: ReducedCalculus) -> FormExpr:
    return calc.multiply(a, b)


def differential(a: FormExpr, calc: ReducedCalculus) -> FormExpr:
    return calc.differential(a)


def function_differential(values: Sequence, calc: ReducedCalculus) -> FormExpr:
    return calc.function_differential(values)

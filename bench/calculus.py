"""Workload `calculus`: exact digraph calculi and their normal forms.

Build requests construct `ReducedCalculus` objects; their cost is the exact
rational elimination of the relations.  They are few and slow: the
bidirected 3 x 3 grid dominates throughput, and the 90th percentile falls
on the Fig. 1 build, which every round requests several times.  Algebra
requests call `multiply` or `differential` on random homogeneous
expressions over the calculi built earlier in the same round; they are
many and fast and set the median.  Every answer is checked exactly: pinned
dimensions for builds, d(da) = 0, the graded Leibniz rule and
associativity for the algebra.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import reference as ref
from common import Request, round_rng
from ncgeom.finite_calculus import (
    Digraph,
    FormExpr,
    build_universal,
    calculus_for,
    complete_arrows,
    differential,
    multiply,
    reduce,
)

SALT = 2
CAP = 6
# Terms per random expression.  More terms make each algebra request's
# cost an average over more path products, so the median depends less on
# the draw.
TERMS = 6
# Random 4-6 point digraphs are built up to degree 3.  At cap 6 one of them
# can take seconds, which would make the workload's cost follow the seed.
RANDOM_CAP = 3
RANDOM_BUILDS = 6
# Algebra requests on each named calculus below, as (operation, degrees of
# the operands a and b; a differential uses only a).  With the 21 builds,
# the median falls inside the algebra requests, a wide cluster in the same
# mix on every seed, so it moves smoothly with the machine's speed.
ALGEBRA_CALCULI = ("fig1", "universal3", "universal4", "bigrid2x2", "bigrid2x3", "bigrid3x3")
CALLS_PER_CALCULUS = (
    *(("multiply", degrees) for degrees in
      ((0, 1), (1, 0), (1, 1), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1))),
    ("differential", (1, 1)), ("differential", (2, 1)),
)


def bigrid_arrows(rows: int, cols: int) -> list[tuple[int, int]]:
    """Grid with both orientations of every edge."""
    out = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                out += [(v, v + 1), (v + 1, v)]
            if r + 1 < rows:
                out += [(v, v + cols), (v + cols, v)]
    return out


def _build(name, how, n, arrows, cap, dims):
    return Request("build", name, {
        "how": how, "n": n, "arrows": sorted(arrows), "cap": cap, "dims": dims,
    })


def build_requests(rng) -> list[Request]:
    """Builds of one round; only the random digraphs depend on the seed.

    The Fig. 1 calculus is built before every second other build and once
    more at the end, eight times in all, so that its copies sample the
    machine's speed before and after the long 3 x 3 grid build.  They are
    the 90th percentile: the random builds around them cost from 0.2 to
    2.5 ms depending on the draw, so a percentile among those would follow
    the seed, while eight equal copies keep it on a Fig. 1 build even when
    a few random builds are slower.
    """
    fig1 = _build("fig1", "reduce", 4, ref.FIG1_ARROWS, CAP, ref.FIG1_DIMS)
    others = [
        _build("universal3", "universal", 3, complete_arrows(3), CAP, ref.universal_dims(3, CAP)),
        _build("universal4", "universal", 4, complete_arrows(4), CAP, ref.universal_dims(4, CAP)),
    ]
    for n in (4, 6):
        chain = [(i, i + 1) for i in range(n - 1)]
        others.append(_build(f"chain{n}", "calculus_for", n, chain, CAP, ref.chain_dims(n)))
    for shape, dims in ref.BIGRID_DIMS.items():
        name = "bigrid{}x{}".format(*shape)
        others.append(_build(name, "calculus_for", shape[0] * shape[1], bigrid_arrows(*shape), CAP, dims))
    for k in range(RANDOM_BUILDS):
        n = int(rng.integers(4, 7))
        arrows = [a for a in sorted(complete_arrows(n)) if rng.random() < 0.5]
        others.append(_build(f"random{n}.{k}", "calculus_for", n, arrows, RANDOM_CAP, None))
    out = []
    for k, build in enumerate(others):
        if k % 2 == 0:
            out.append(fig1)
        out.append(build)
    return out + [fig1]


def admissible_paths(n: int, arrows, degree: int) -> list[tuple[int, ...]]:
    succ = {v: sorted(j for i, j in arrows if i == v) for v in range(n)}
    paths = [(v,) for v in range(n)]
    for _ in range(degree):
        paths = [p + (j,) for p in paths for j in succ[p[-1]]]
    return paths


def random_expr(rng, build: Request, degree: int, after: FormExpr | None = None) -> FormExpr:
    """A degree-`degree` expression with up to TERMS terms and small rational coefficients.

    With `after`, every path starts where a path of `after` ends, so that
    their product has terms and its cost does not hinge on the draw.
    """
    a = build.args
    paths = admissible_paths(a["n"], a["arrows"], degree)
    if after is not None:  # Fig. 1 has a sink, so this can leave nothing
        ends = {p[-1] for p in after.terms}
        paths = [p for p in paths if p[0] in ends] or paths
    terms = {}
    for _ in range(TERMS):
        path = paths[int(rng.integers(len(paths)))]
        num = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        terms[path] = Fraction(num, int(rng.integers(1, 4)))
    return FormExpr(terms)


def algebra_requests(rng, builds: list[Request]) -> list[Request]:
    """Operands of degree at most 2, so every form the checks build has
    degree at most 4, below the cap."""
    by_name = {b.name: b for b in builds}
    plan = [(name, *call) for name in ALGEBRA_CALCULI for call in CALLS_PER_CALCULUS]
    out = []
    for k in rng.permutation(len(plan)):
        name, op, (deg_a, deg_b) = plan[k]
        law = ("assoc" if rng.random() < 0.5 else "leibniz") if op == "multiply" else "dd"
        build = by_name[name]
        x = random_expr(rng, build, deg_a)
        y = random_expr(rng, build, deg_b, after=x)
        args = {"calc": name, "op": op, "law": law, "a": x, "b": y,
                "c": random_expr(rng, build, 1, after=y)}
        out.append(Request(op, name, args))
    return out


def make_round(seed: int, index: int, workdir: Path) -> list[Request]:
    rng = round_rng(seed, SALT, index)
    builds = build_requests(rng)
    return builds + algebra_requests(rng, builds)


def warmup_request(workdir: Path) -> Request:
    return _build("fig1", "reduce", 4, ref.FIG1_ARROWS, CAP, ref.FIG1_DIMS)


def execute(req: Request, tracer, ctx: dict):
    a = req.args
    if req.kind == "build":
        with tracer.span("finite_calculus.build", instance=req.name):
            if a["how"] == "universal":
                calc = build_universal(a["n"], degree_cap=a["cap"])
            elif a["how"] == "reduce":
                calc = reduce(build_universal(a["n"], degree_cap=a["cap"]), a["arrows"])
            else:
                calc = calculus_for(Digraph.from_arrows(a["n"], a["arrows"]), degree_cap=a["cap"])
        ctx[req.name] = calc
        return calc
    calc = ctx[a["calc"]]
    with tracer.span(f"finite_calculus.{a['op']}"):
        if a["op"] == "multiply":
            return calc, multiply(a["a"], a["b"], calc)
        return calc, differential(a["a"], calc)


def _sign(expr: FormExpr) -> int:
    return -1 if (expr.degree or 0) % 2 else 1


def check(req: Request, out, stats) -> str | None:
    """None when the answer is exactly right, else "wrong_value"."""
    a = req.args
    if req.kind == "build":
        dims = out.dimensions()
        if a["dims"] is None:
            ok = min(dims) >= 0 and all(
                not out.differential(out.differential(FormExpr.from_path((v,))))
                for v in range(a["n"]))
            return None if ok else "wrong_value"
        stats.named_paths += sum(len(b) for b in out.basis_by_degree)
        stats.named_relations += sum(len(r) for r in out.relations_by_degree)
        return None if dims == a["dims"] else "wrong_value"
    calc, result = out
    x, y, z = a["a"], a["b"], a["c"]
    if a["law"] == "dd":
        ok = not calc.differential(result)
    elif a["law"] == "assoc":
        ok = calc.multiply(result, z) == calc.multiply(x, calc.multiply(y, z))
    else:  # graded Leibniz: d(xy) = (dx)y + (-1)^|x| x(dy)
        rhs = calc.multiply(calc.differential(x), y)
        rhs = rhs + _sign(x) * calc.multiply(x, calc.differential(y))
        ok = calc.differential(result) == rhs
    return None if ok else "wrong_value"

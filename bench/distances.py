"""Workload `distances`: graph file -> certified Connes distance.

A request loads a digraph file (JSON and edge-list files alternate), builds
the weighted adjacency matrix, doubles it on every other directed request,
solves, measures the optimizer's commutator norm and serializes the result
record canonically.  One request per round asks for a whole distance matrix.

Many requests are small (2-8 points) and cost a few milliseconds, so the
median latency follows per-call overhead; a few are large (grid corners up
to 36 points, random 16- and 32-point graphs, the matrices) and cost up to
seconds, so throughput and the 90th percentile follow how the solver scales.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from common import Request, round_rng
from ncgeom import io as ncio
from ncgeom.distance import (
    DistanceProblem,
    commutator_norm,
    distance,
    distance_matrix,
)
from ncgeom.matrix_rep import AdjacencyMatrix, double, verify_triple

SALT = 1

# Requests of each kind in one round: 54 small and 9 large.  The median
# falls among the cheap solves (two-point, chains, Fig. 1), a wide cluster.
# The 4 x 4 grid corner is asked four times per round, and the 90th
# percentile falls in the middle of its copies, which cost the same on every
# seed: only the random 16- and 32-point graphs, the 6 x 6 grid and the
# matrix cost more.  Among random 16-point graphs the percentile followed
# the draw.
SMALL_MIX = {"two_point": 8, "chain": 22, "fig1": 8, "fig5": 2, "random": 6, "disconnected": 8}
GRID_COPIES = {3: 1, 4: 4, 6: 1}  # k x k grid corner: requests per round
RANDOM_LARGE = ((16, 0.25), (32, 0.15))  # points, arrow probability


def grid_arrows(k: int) -> list[tuple[int, int]]:
    """Directed k x k grid, arrows to the right and downwards."""
    out = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                out.append((v, v + 1))
            if r + 1 < k:
                out.append((v, v + k))
    return out


def weakly_connected(n: int, arrows) -> bool:
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in arrows:
        root[find(i)] = find(j)
    return len({find(v) for v in range(n)}) == 1


def random_connected(rng, n: int, prob: float) -> list[tuple[int, int]]:
    """A weakly connected digraph with round(prob * n(n-1)) arrows.

    A fixed arrow count keeps the solver's cost from varying more from seed
    to seed than the graphs' shapes make it.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = max(n - 1, round(prob * len(pairs)))
    while True:
        arrows = sorted(pairs[k] for k in rng.choice(len(pairs), size=count, replace=False))
        if weakly_connected(n, arrows):
            return arrows


def random_lengths(rng, arrows) -> dict:
    return {a: float(rng.uniform(0.5, 2.5)) for a in arrows}


def _instance(name, n, arrows, lengths=None, pair=None, ref_value=None, tol=ref.EXACT_TOL):
    return {
        "name": name, "n": n, "arrows": arrows, "lengths": lengths,
        "pair": pair, "ref": ref_value, "tol": tol,
    }


def _small_instance(kind: str, rng, k: int) -> dict:
    if kind == "two_point":
        arrows = [(0, 1), (1, 0)] if k % 2 == 0 else [(0, 1)]
        return _instance("two_point", 2, arrows, pair=(0, 1), ref_value=ref.TWO_POINT)
    if kind == "chain":
        n = 3 + k % 6
        arrows = [(i, i + 1) for i in range(n - 1)]
        lengths = random_lengths(rng, arrows)
        p = int(rng.integers(0, n - 1))
        q = int(rng.integers(p + 1, n))
        total = sum(lengths[(i, i + 1)] for i in range(p, q))
        return _instance(f"chain{n}", n, arrows, lengths, (p, q), total)
    if kind == "fig1":
        return _instance("fig1", 4, ref.FIG1_ARROWS, pair=(0, 2), ref_value=ref.FIG1)
    if kind == "fig5":
        pair = sorted(ref.FIG5_ORACLE)[k % 2]
        return _instance("fig5", 6, ref.FIG5_ARROWS, None, pair, ref.FIG5_ORACLE[pair], ref.ORACLE_TOL)
    if kind == "random":
        n = int(rng.integers(4, 7))
        arrows = random_connected(rng, n, 0.5)
        p, q = (int(v) for v in rng.choice(n, size=2, replace=False))
        return _instance(f"random{n}", n, arrows, random_lengths(rng, arrows), (p, q))
    if kind == "disconnected":
        a, b = (int(v) for v in rng.integers(2, 4, size=2))
        arrows = random_connected(rng, a, 0.6)
        arrows += [(i + a, j + a) for i, j in random_connected(rng, b, 0.6)]
        pair = (int(rng.integers(0, a)), int(rng.integers(a, a + b)))
        return _instance(f"disconnected{a + b}", a + b, arrows, None, pair, math.inf)
    raise ValueError(kind)


def round_instances(seed: int, index: int) -> list[dict]:
    """The instances of one round, in request order."""
    rng = round_rng(seed, SALT, index)
    out = []
    for kind, count in SMALL_MIX.items():
        out += [_small_instance(kind, rng, k) for k in range(count)]
    for k, copies in GRID_COPIES.items():
        out += [_instance(f"grid{k}", k * k, grid_arrows(k), pair=(0, k * k - 1))] * copies
    for n, prob in RANDOM_LARGE:
        arrows = random_connected(rng, n, prob)
        p, q = (int(v) for v in rng.choice(n, size=2, replace=False))
        out.append(_instance(f"random{n}", n, arrows, random_lengths(rng, arrows), (p, q)))
    # one all-pairs matrix per round, alternating between two graphs
    if index % 2 == 0:
        out.append(_instance("fig5_matrix", 6, ref.FIG5_ARROWS))
    else:
        arrows = random_connected(rng, 5, 0.5)
        out.append(_instance("random5_matrix", 5, arrows, random_lengths(rng, arrows)))
    return [out[i] for i in rng.permutation(len(out))]


def write_graph(path: Path, inst: dict) -> None:
    """JSON when the path ends in .json, else one 'from to [length]' line per arrow."""
    labels = [f"p{v}" for v in range(inst["n"])]
    lengths = inst["lengths"]
    if path.suffix == ".json":
        data = {"points": labels, "arrows": [[labels[i], labels[j]] for i, j in inst["arrows"]]}
        if lengths is not None:
            data["lengths"] = [[labels[i], labels[j], ell] for (i, j), ell in lengths.items()]
        path.write_text(json.dumps(data))
    else:
        lines = []
        for i, j in inst["arrows"]:
            tail = "" if lengths is None else f" {lengths[(i, j)]!r}"
            lines.append(f"{labels[i]} {labels[j]}{tail}\n")
        path.write_text("".join(lines))


def _request(inst: dict, path: Path, doubled: bool) -> Request:
    args = {"path": str(path), "double": doubled}
    if inst["pair"] is None:
        refs = []
        if inst["name"] == "fig5_matrix":
            refs = [(f"p{a}", f"p{b}", v, ref.ORACLE_TOL) for (a, b), v in ref.FIG5_ORACLE.items()]
        args["refs"] = refs
        return Request("matrix", inst["name"], args)
    p, q = inst["pair"]
    args.update(p=f"p{p}", q=f"p{q}", ref=inst["ref"], tol=inst["tol"])
    return Request("pair", inst["name"], args)


def is_directed(inst: dict) -> bool:
    arrows = set(inst["arrows"])
    lengths = inst["lengths"] or {}
    return any(
        (j, i) not in arrows or lengths.get((i, j)) != lengths.get((j, i))
        for i, j in arrows
    )


def make_round(seed: int, index: int, workdir: Path) -> list[Request]:
    requests = []
    directed = 0
    for k, inst in enumerate(round_instances(seed, index)):
        path = workdir / f"distances-{index}-{k}.{'json' if k % 2 == 0 else 'txt'}"
        write_graph(path, inst)
        doubled = False
        if is_directed(inst):
            doubled = directed % 2 == 1
            directed += 1
        requests.append(_request(inst, path, doubled))
    return requests


def warmup_request(workdir: Path) -> Request:
    inst = _small_instance("two_point", None, 0)
    path = workdir / "distances-warmup.json"
    write_graph(path, inst)
    return _request(inst, path, False)


def execute(req: Request, tracer, ctx: dict):
    a = req.args
    with tracer.span("io.load_digraph"):
        graph, lengths = ncio.load_digraph(a["path"])
    with tracer.span("matrix_rep.from_digraph"):
        op = AdjacencyMatrix.from_digraph(graph, lengths)
    record = {"doubled": a["double"], "triple_ok": None}
    if a["double"]:
        with tracer.span("matrix_rep.double"):
            op = double(op)
        with tracer.span("matrix_rep.verify_triple"):
            report = verify_triple(op, fs=[np.arange(graph.n, dtype=float)])
        record["triple_ok"] = report.all_ok
    if req.kind == "matrix":
        with tracer.span("distance.distance_matrix", n=graph.n):
            record["distances"] = distance_matrix(op)
        record["labels"] = list(graph.base.labels)
    else:
        p, q = graph.base.index_of(a["p"]), graph.base.index_of(a["q"])
        with tracer.span("distance.distance", n=graph.n):
            sol = distance(DistanceProblem(op, p, q))
        with tracer.span("distance.commutator_norm", n=graph.n):
            norm = commutator_norm(op, sol.optimizer)
        record.update(p=a["p"], q=a["q"], value=sol.value, upper_bound=sol.upper_bound,
                      commutator_norm=norm)
    with tracer.span("io.dumps_canonical"):
        text = ncio.dumps_canonical(record)
    return record, text


def _check_matrix(args: dict, record: dict) -> str | None:
    m = np.asarray(record["distances"], dtype=float)
    index = {label: k for k, label in enumerate(record["labels"])}
    if not (np.all(np.isfinite(m)) and np.all(np.diag(m) == 0) and np.array_equal(m, m.T)):
        return "wrong_value"
    # m[a, c] <= m[a, b] + m[b, c] for every triple
    if not np.all(m[:, None, :] <= m[:, :, None] + m[None, :, :] + ref.EXACT_TOL):
        return "wrong_value"
    for la, lb, value, tol in args["refs"]:
        if abs(m[index[la], index[lb]] - value) > tol:
            return "wrong_value"
    return None


def check(req: Request, out, stats) -> str | None:
    """None when the answer is right and certified, else the failure cause."""
    record, text = out
    if record["triple_ok"] is False:
        return "wrong_value"
    if req.kind == "matrix":
        return _check_matrix(req.args, record)
    a = req.args
    value, upper = record["value"], record["upper_bound"]
    parsed = json.loads(text)["value"]
    if (math.inf if parsed == "inf" else parsed) != value:
        return "wrong_value"
    if a["ref"] == math.inf or math.isinf(value):
        return None if value == a["ref"] else "wrong_value"
    stats.solves += 1
    gap = 1.0 if upper is None else (upper - value) / (1.0 + upper)
    stats.gap_rel_max = max(stats.gap_rel_max, gap)
    if a["ref"] is not None and abs(value - a["ref"]) > a["tol"]:
        return "wrong_value"
    if record["commutator_norm"] > 1.0 + ref.NORM_TOL or gap > ref.CERT_TOL:
        return "uncertified"
    stats.certified += 1
    return None

"""Tests of the benchmark's reference table and of its input generation.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

They recompute every reference value the benchmark checks against, the
Fig. 5 entries with the brute-force oracle, and run one round of each
workload through the benchmark loop.  The oracle runs here, never inside
a benchmark run.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calculus  # noqa: E402
import distances  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import toda  # noqa: E402
from ncgeom.distance import DistanceProblem, distance, oracle_distance  # noqa: E402
from ncgeom.finite_calculus import Digraph, build_universal, calculus_for, reduce  # noqa: E402

SEED = 7


def adjacency(inst: dict) -> np.ndarray:
    d = np.zeros((inst["n"], inst["n"]))
    for i, j in inst["arrows"]:
        d[i, j] = 1.0 / (inst["lengths"] or {}).get((i, j), 1.0)
    return d


def fingerprint(requests) -> list:
    """Requests as plain data, graph files read back, paths left out."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items() if k != "path"}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        if hasattr(value, "terms"):
            return sorted((p, str(c)) for p, c in value.terms.items())
        return value

    out = []
    for req in requests:
        entry = [req.kind, req.name, plain(req.args)]
        if "path" in req.args:
            entry.append(Path(req.args["path"]).read_text())
        out.append(entry)
    return out


# -- reference table -------------------------------------------------------


def test_two_point_and_fig1_references():
    two = np.array([[0.0, 1.0], [1.0, 0.0]])
    fig1 = adjacency(distances._small_instance("fig1", None, 0))
    for d, p, q, expected in ((two, 0, 1, ref.TWO_POINT), (fig1, 0, 2, ref.FIG1)):
        prob = DistanceProblem(d, p, q)
        assert oracle_distance(prob) == pytest.approx(expected, abs=ref.ORACLE_TOL)
        assert distance(prob).value == pytest.approx(expected, abs=ref.EXACT_TOL)


def test_fig5_oracle_table():
    inst = distances._small_instance("fig5", None, 0)
    for (p, q), value in ref.FIG5_ORACLE.items():
        assert oracle_distance(DistanceProblem(adjacency(inst), p, q)) == pytest.approx(value, abs=1e-9)


def test_oracle_on_every_small_instance():
    """Chain sums, infinities and solver values agree with the oracle."""
    seen = set()
    for inst in distances.round_instances(SEED, 0):
        if inst["pair"] is None or inst["n"] > 6 or inst["name"] in ("fig1", "fig5", "two_point"):
            continue
        key = (inst["name"], str(inst["arrows"]), str(inst["lengths"]), inst["pair"])
        if key in seen:
            continue
        seen.add(key)
        prob = DistanceProblem(adjacency(inst), *inst["pair"])
        oracle = oracle_distance(prob)
        if inst["name"].startswith("chain"):
            p, q = inst["pair"]
            assert inst["ref"] == pytest.approx(sum(inst["lengths"][(k, k + 1)] for k in range(p, q)))
        expected = distance(prob).value if inst["ref"] is None else inst["ref"]
        if math.isinf(expected):
            assert math.isinf(oracle)
        else:
            assert oracle == pytest.approx(expected, abs=ref.ORACLE_TOL)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_universal_dimensions_formula(n):
    assert build_universal(n, degree_cap=5).dimensions() == ref.universal_dims(n, 5)


def test_pinned_calculus_dimensions():
    assert reduce(build_universal(4), ref.FIG1_ARROWS).dimensions() == ref.FIG1_DIMS
    for n in (3, 4, 6):
        chain = Digraph.from_arrows(n, [(i, i + 1) for i in range(n - 1)])
        assert calculus_for(chain).dimensions() == ref.chain_dims(n)
    for (rows, cols), dims in ref.BIGRID_DIMS.items():
        grid = Digraph.from_arrows(rows * cols, calculus.bigrid_arrows(rows, cols))
        assert calculus_for(grid, degree_cap=6).dimensions() == dims


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("module", [distances, calculus, toda])
def test_seed_fixes_the_request_list(module, tmp_path):
    first = fingerprint(module.make_round(SEED, 0, tmp_path))
    again = fingerprint(module.make_round(SEED, 0, tmp_path))
    other = fingerprint(module.make_round(SEED + 1, 0, tmp_path))
    assert first == again
    assert first != other


def test_named_instances_do_not_depend_on_the_seed():
    def named(seed):
        return [inst for inst in distances.round_instances(seed, 0)
                if not inst["name"].startswith(("random", "chain", "disconnected"))]

    assert sorted(named(1), key=repr) == sorted(named(2), key=repr)
    builds = [calculus.build_requests(np.random.default_rng(s)) for s in (1, 2)]
    assert [(b.name, b.args) for b in builds[0] if b.args["dims"]] == \
        [(b.name, b.args) for b in builds[1] if b.args["dims"]]


# -- one round of each workload through the benchmark loop -------------------


@pytest.mark.parametrize("module", [calculus, toda])
def test_round_has_no_failures(module, tmp_path):
    tally = run.Tally()
    run.run_round(module, module.make_round(SEED, 0, tmp_path), run.NULL_TRACER, tally)
    assert tally.failed == 0


def test_distances_round_answers_are_right(tmp_path):
    """Uncertified answers count as failures; wrong ones and errors never occur."""
    tally = run.Tally()
    tracer = run.Tracer()
    run.run_round(distances, distances.make_round(SEED, 0, tmp_path), tracer, tally)
    assert tally.by_cause("exception") == tally.by_cause("wrong_value") == 0
    names = {s["name"] for s in tracer.spans}
    assert {"io.load_digraph", "matrix_rep.double", "distance.distance_matrix"} <= names
    assert all(t >= 0 for t in run.self_times(tracer.spans))

"""Workload `toda`: lattice sigma-model, discrete Toda flow, current ladder.

Discrete requests evolve a Gaussian bump, turn the slices into the source
field a = e^{-q} and build the conserved-current ladder.  Small windows
(about 16 sites x 50 steps) are dominated by Python and object overhead,
large ones (about 256 x 800) by array work.  The other requests are the
block-diagonal matrix source, a window too small for the ladder (it must
return a partial ladder with a note), direct `lattice` calls on the source
fields, the continuum integrator under each boundary condition and the
observed discrete-to-continuum convergence order.  No request touches distances or
calculi, so changes there should leave this workload unchanged.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import reference as ref
from common import Request, round_rng
from ncgeom.lattice import LatticeField, exterior_derivative
from ncgeom.sigma_toda import (
    BOUNDARIES,
    TodaState,
    current_ladder,
    discrete_continuum_orders,
    exp_field_from_slices,
    toda_integrate,
    toda_run_discrete,
    two_dim_spec,
)

SALT = 3
L0, L1 = 0.5, 1.0
# Discrete windows (sites, steps) of one round, spread around 16 x 50 and
# 256 x 800.  A single window size would make the median and the 90th
# percentile sit on one narrow cluster of latencies, which jumps with the
# machine's speed; a spread of sizes makes them move smoothly.
WINDOWS = {
    "small": [(sites, steps) for sites in (12, 16, 20, 24) for steps in (40, 50, 60)],
    "large": [(192, 600), (256, 800), (320, 1000)],
}
MATRIX_PER_ROUND = 2
INTEGRATE_T, INTEGRATE_H = 2.0, 1e-3


def bump(n_sites: int, amp: float, width: float, center: float) -> np.ndarray:
    k = np.arange(n_sites)
    return amp * np.exp(-width * (k - center) ** 2)


def _discrete(rng, size: str, sites: int, steps: int) -> Request:
    q0 = bump(sites, rng.uniform(0.1, 0.4), rng.uniform(0.3, 0.8),
              sites / 2 + rng.uniform(-sites / 8, sites / 8))
    return Request("discrete", size, {"q0": q0, "steps": steps, "l0": L0, "m_max": 3})


def _matrix(rng) -> Request:
    qs = [bump(12, amp, 0.5, 5.5) for amp in (rng.uniform(0.2, 0.35), rng.uniform(0.1, 0.25))]
    return Request("matrix", "matrix", {"q0s": qs, "steps": 30, "l0": 0.4, "m_max": 2})


def make_round(seed: int, index: int, workdir: Path) -> list[Request]:
    rng = round_rng(seed, SALT, index)
    out = []
    for size, windows in WINDOWS.items():
        out += [_discrete(rng, size, sites, steps) for sites, steps in windows]
    out += [_matrix(rng) for _ in range(MATRIX_PER_ROUND)]
    out.append(Request("exhaustion", "exhaustion", {
        "q0": bump(6, rng.uniform(0.05, 0.15), 0.5, 2.5), "steps": 4, "l0": L0, "m_max": 5,
    }))
    # direct lattice calls on the last source field of each window size
    out += [Request("lattice", size) for size in WINDOWS]
    for boundary in BOUNDARIES:
        q0 = bump(8, rng.uniform(0.3, 0.6), 0.5, 3.5)
        p0 = rng.uniform(0.1, 0.3) * np.sin(np.arange(8) + rng.uniform(0, 2 * np.pi))
        out.append(Request("integrate", boundary, {"q0": q0, "p0": p0}))
    q0 = bump(8, rng.uniform(0.35, 0.45), rng.uniform(0.6, 0.8), 3.5)
    p0 = 0.2 * np.sin(2 * np.pi * np.arange(8) / 8)
    out.append(Request("orders", "orders", {"q0": q0, "p0": p0}))
    return out


def warmup_request(workdir: Path) -> Request:
    return Request("discrete", "small", {"q0": bump(16, 0.3, 0.5, 7.5), "steps": 50, "l0": L0, "m_max": 3})


def _source(tracer, q0, steps, l0):
    with tracer.span("sigma_toda.toda_run_discrete", steps=steps):
        slices = toda_run_discrete(TodaState(q0, q0, l0, L1), steps)
    with tracer.span("sigma_toda.exp_field_from_slices"):
        return slices, exp_field_from_slices(slices, l0, L1)


def execute(req: Request, tracer, ctx: dict):
    a = req.args
    if req.kind in ("discrete", "exhaustion"):
        _, field = _source(tracer, a["q0"], a["steps"], a["l0"])
        ctx[req.name] = field
        with tracer.span("sigma_toda.current_ladder", size=req.name):
            return current_ladder(field, m_max=a["m_max"])
    if req.kind == "matrix":
        runs = [_source(tracer, q0, a["steps"], a["l0"])[0] for q0 in a["q0s"]]
        vals = np.zeros(runs[0].shape + (2, 2))
        vals[..., 0, 0] = np.exp(-runs[0])
        vals[..., 1, 1] = np.exp(-runs[1])
        spec = two_dim_spec(a["l0"], L1, (0, vals.shape[0]), (0, vals.shape[1]))
        field = LatticeField(spec, vals)
        with tracer.span("sigma_toda.current_ladder", size="matrix"):
            return current_ladder(field, m_max=a["m_max"])
    if req.kind == "lattice":
        field = ctx[req.name]
        with tracer.span("lattice.exterior_derivative"):
            d = exterior_derivative(field)
        with tracer.span("lattice.inverse"):
            inv = field.inverse()
        with tracer.span("lattice.field_mul"):
            square = field * field
        return field, d, inv, square
    if req.kind == "integrate":
        steps = int(round(INTEGRATE_T / INTEGRATE_H))
        with tracer.span("sigma_toda.toda_integrate", steps=steps):
            return toda_integrate(a["q0"], a["p0"], INTEGRATE_T, INTEGRATE_H, boundary=req.name)
    with tracer.span("sigma_toda.discrete_continuum_orders"):
        return discrete_continuum_orders(a["q0"], a["p0"], t_final=1.0)


def _check_lattice(out) -> bool:
    field, d, inv, square = out
    v = field.values
    forward = [np.diff(v, axis=ax) / field.spec.spacings[ax] for ax in range(2)]
    for comp, expected in zip(d.components, forward):
        win = comp.spec.window
        if np.max(np.abs(comp.values - expected[: win[0][1], : win[1][1]])) > 1e-12:
            return False
    return (np.max(np.abs(inv.values * v - 1.0)) <= 1e-12
            and np.array_equal(square.values, v * v))


def check(req: Request, out, stats) -> str | None:
    """None when the answer passes its check, else "wrong_value"."""
    if req.kind in ("discrete", "matrix"):
        ladder = out
        stats.ladder_residual_max = max([stats.ladder_residual_max, *ladder.residuals])
        ok = (ladder.note is None and ladder.depth == req.args["m_max"]
              and max(ladder.residuals) < ref.LADDER_TOL)
    elif req.kind == "exhaustion":
        ok = out.note is not None and 0 < out.depth < req.args["m_max"]
    elif req.kind == "lattice":
        ok = _check_lattice(out)
    elif req.kind == "integrate":
        energies = out.energies()
        drift = float(np.max(np.abs(energies - energies[0])))
        stats.energy_drift_max = max(stats.energy_drift_max, drift)
        ok = drift < ref.ENERGY_DRIFT_TOL
        if req.name != "fixed":  # fixed walls exert a force, so p is not conserved
            momenta = out.momenta()
            ok = ok and float(np.max(np.abs(momenta - momenta[0]))) < ref.MOMENTUM_DRIFT_TOL
    else:
        _, orders = out
        ok = all(abs(order - 1.0) <= ref.ORDER_TOL for order in orders)
    return None if ok else "wrong_value"

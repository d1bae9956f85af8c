"""ncgeom benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload distances --seed 1 --seconds 30 --trace 0

Workloads are `distances`, `calculus` and `toda` (see BENCHMARK.json and
bench/README.md).  Inputs are drawn from --seed; named instances do not
depend on it.  With --trace 0 the run repeats whole rounds of the workload
for about --seconds (and at least MIN_REQUESTS requests), checks every
answer and reports the end-to-end metrics.  With --trace 1 it runs round 0
of every workload once untraced and once traced, and derives the per-layer
metrics from the spans.  The last line of stdout is one JSON object;
results and spans are also written under .bench_out/ in the checkout.
"""

import time

T_START = time.perf_counter()  # set-up time starts here: imports are part of it

import os  # noqa: E402

# BLAS threads must be fixed before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import suppress  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from common import Stats  # noqa: E402
from spans import NULL_TRACER, Tracer, self_times  # noqa: E402

WORKLOADS = ("distances", "calculus", "toda")
POOL_ROUNDS = 4  # rounds generated at set-up; longer runs cycle through them
MIN_REQUESTS = 100
SETUP_SAMPLES = 5  # this process plus fresh child processes
HOLDOUT_SEED = 20260417  # never used while writing a change; re-check claims on it
FAILURE_CAUSES = ("exception", "wrong_value", "uncertified")


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # (cause, instance) -> count
    stats: Stats = field(default_factory=Stats)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def by_cause(self, cause: str) -> int:
        return sum(n for (c, _), n in self.failures.items() if c == cause)


def load_workloads() -> dict:
    """Import the workload modules, which import ncgeom from the checkout's src/."""
    mods = {name: importlib.import_module(name) for name in WORKLOADS}
    origin = Path(sys.modules["ncgeom.distance"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"ncgeom was imported from {origin}, not from {ROOT / 'src'}")
    return mods


def set_up(mod, seed: int, workdir: Path) -> list:
    """Generate the round pool (writing graph files) and run one warm-up request."""
    rounds = [mod.make_round(seed, index, workdir) for index in range(POOL_ROUNDS)]
    warm = mod.warmup_request(workdir)
    if mod.check(warm, mod.execute(warm, NULL_TRACER, {}), Stats()) is not None:
        raise RuntimeError(f"{mod.__name__}: the warm-up request failed its check")
    return rounds


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, imports included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(mod, requests, tracer, tally: Tally) -> None:
    ctx: dict = {}  # results later requests of the same round build on
    for req in requests:
        start = time.perf_counter()
        try:
            with tracer.request(workload=mod.__name__, kind=req.kind, instance=req.name):
                out = mod.execute(req, tracer, ctx)
        except Exception:  # a request that raises counts as failed; the loop goes on
            tally.latencies.append(time.perf_counter() - start)
            tally.failures["exception", req.name] += 1
            print(f"{mod.__name__}/{req.name}: {traceback.format_exc()}", file=sys.stderr)
            continue
        tally.latencies.append(time.perf_counter() - start)
        cause = mod.check(req, out, tally.stats)
        if cause is not None:
            tally.failures[cause, req.name] += 1


def measure(mod, rounds: list, seconds: float) -> tuple:
    """Whole rounds until the next one would end after `seconds`."""
    tally = Tally()
    start = time.perf_counter()
    done = 0
    while True:
        run_round(mod, rounds[done % len(rounds)], NULL_TRACER, tally)
        done += 1
        elapsed = time.perf_counter() - start
        if len(tally.latencies) >= MIN_REQUESTS and elapsed * (done + 1) / done > seconds:
            return tally, done


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = tally.latencies
    cuts = statistics.quantiles(lat, n=10)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (cuts[8] * 1e3, "ms"),
        # the complement of failed_share, so that the metric is never zero
        "ok_share": (1.0 - tally.failed / len(lat), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(spans: list, traced: Tally, untraced: Tally) -> dict:
    """Per-layer metrics from the spans of one traced round of every workload."""
    by_name = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        by_name[span["name"]].append((own, span["attrs"]))

    def median(name, scale, keep=lambda attrs: True):
        return statistics.median(t for t, attrs in by_name[name] if keep(attrs)) * scale

    def per_step_us(name):
        spent = sum(t for t, _ in by_name[name])
        return spent / sum(attrs["steps"] for _, attrs in by_name[name]) * 1e6

    def solve_ms(lo, hi):
        return median("distance.distance", 1e3, lambda a: lo <= a["n"] <= hi)

    builds = by_name["finite_calculus.build"]
    requests = sum(s["end"] - s["start"] for s in spans if s["name"] == "request")
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is not None)
    stats = traced.stats
    out = {
        "io.load_digraph_ms": (median("io.load_digraph", 1e3), "ms"),
        "io.dumps_canonical_ms": (median("io.dumps_canonical", 1e3), "ms"),
        "matrix_rep.from_digraph_ms": (median("matrix_rep.from_digraph", 1e3), "ms"),
        "matrix_rep.double_ms": (median("matrix_rep.double", 1e3), "ms"),
        "matrix_rep.verify_triple_ms": (median("matrix_rep.verify_triple", 1e3), "ms"),
        "distance.solve_ms.n_le_8": (solve_ms(0, 8), "ms"),
        "distance.solve_ms.n_9_16": (solve_ms(9, 16), "ms"),
        "distance.solve_ms.n_gt_16": (solve_ms(17, 1 << 30), "ms"),
        "distance.matrix_ms": (median("distance.distance_matrix", 1e3), "ms"),
        "distance.commutator_norm_ms": (median("distance.commutator_norm", 1e3), "ms"),
        "distance.calls": (sum(len(v) for k, v in by_name.items() if k.startswith("distance.")), "count"),
        "distance.certified_share": (stats.certified / stats.solves, "share"),
        "distance.gap_rel_max": (stats.gap_rel_max, "1"),
        "finite_calculus.build_ms.bigrid3x3": (
            median("finite_calculus.build", 1e3, lambda a: a["instance"] == "bigrid3x3"), "ms"),
        "finite_calculus.build_ms.small": (
            median("finite_calculus.build", 1e3, lambda a: a["instance"] != "bigrid3x3"), "ms"),
        "finite_calculus.build_s_total": (sum(t for t, _ in builds), "s"),
        "finite_calculus.multiply_us": (median("finite_calculus.multiply", 1e6), "us"),
        "finite_calculus.differential_us": (median("finite_calculus.differential", 1e6), "us"),
        "finite_calculus.paths": (stats.named_paths, "count"),
        "finite_calculus.relations": (stats.named_relations, "count"),
        "lattice.exterior_derivative_us": (median("lattice.exterior_derivative", 1e6), "us"),
        "lattice.inverse_us": (median("lattice.inverse", 1e6), "us"),
        "lattice.field_mul_us": (median("lattice.field_mul", 1e6), "us"),
        **{f"sigma_toda.ladder_ms.{size}": (median(
            "sigma_toda.current_ladder", 1e3, lambda a, size=size: a["size"] == size), "ms")
           for size in ("small", "large", "matrix")},
        "sigma_toda.toda_step_us": (per_step_us("sigma_toda.toda_run_discrete"), "us"),
        "sigma_toda.integrate_step_us": (per_step_us("sigma_toda.toda_integrate"), "us"),
        "sigma_toda.orders_ms": (median("sigma_toda.discrete_continuum_orders", 1e3), "ms"),
        "sigma_toda.ladder_residual_max": (stats.ladder_residual_max, "1"),
        "sigma_toda.energy_drift_max": (stats.energy_drift_max, "1"),
        # same requests in the same order, so compare them one by one
        "trace.overhead_share": (statistics.median(
            t / u for t, u in zip(traced.latencies, untraced.latencies)) - 1.0, "share"),
        "trace.coverage_share": (covered / requests, "share"),
    }
    for cause in FAILURE_CAUSES:
        out[f"failures.{cause}"] = (traced.by_cause(cause), "count")
    return out


def layer_totals(spans: list) -> dict:
    """Self time and call count per layer; "request" is the benchmark's own share."""
    totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span, own in zip(spans, self_times(spans)):
        total = totals[span["name"].split(".")[0]]
        total["self_s"] += own
        total["calls"] += 1
    return dict(totals)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 prints its config instead
        blas = {}
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def report(args, metrics: dict, tally: Tally, extra: dict) -> None:
    """Print metrics for people, write the result file, then the JSON line."""
    n = len(tally.latencies)
    scalars = " ".join(f"{k}={v}" for k, v in extra.items() if isinstance(v, int))
    print(f"ncgeom benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"requests={n} {scalars}")
    for layer, total in extra.get("layers", {}).items():
        print(f"  layer {layer:14s} self {total['self_s']:10.4f} s  calls {total['calls']}")
    samples = "" if args.trace else f" (n={n})"
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s}{samples}")
    print(f"  {'failed_share':36s} {tally.failed / n:14.6g} share  ({tally.failed} of {n})")
    for (cause, name), count in sorted(tally.failures.items()):
        print(f"    failures.{cause}: {name} x{count}")
    result = {
        "workload": args.workload, "trace": args.trace, "samples": n,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": {f"{c}:{name}": k for (c, name), k in sorted(tally.failures.items())},
        "environment": environment(args.seed), **extra,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    correct = tally.by_cause("exception") == 0 and tally.by_cause("wrong_value") == 0
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = load_workloads()
    except ImportError as exc:
        print(f"cannot import ncgeom from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        names = WORKLOADS if args.trace else (args.workload,)
        pools = {name: set_up(mods[name], args.seed, workdir) for name in names}
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            tracer, traced, untraced = Tracer(), Tally(), Tally()
            for name in names:
                run_round(mods[name], pools[name][0], NULL_TRACER, untraced)
                run_round(mods[name], pools[name][0], tracer, traced)
            tracer.dump(OUT_DIR / f"spans-seed{args.seed}.json")
            report(args, per_layer(tracer.spans, traced, untraced), traced,
                   {"spans": len(tracer.spans), "layers": layer_totals(tracer.spans)})
            return 0
        samples = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        tally, rounds = measure(mods[args.workload], pools[args.workload], args.seconds)
        metrics = end_to_end(tally, statistics.median(samples))
        report(args, metrics, tally, {"rounds": rounds, "setup_samples": samples})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):  # still in use while another run is going on
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())

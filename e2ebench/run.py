"""End-to-end benchmark of SuperSim on the paper's workloads, stage by stage.

Run from the repository root::

    python3 e2ebench/run.py --workload qaoa22_exact --seed 3 --seconds 15 --trace 0

``--workload all`` runs every workload in turn and prints one table.

Workloads (``BENCHMARK.json`` lists the gated ones and why each was chosen):

* ``hwea100_marginals`` - ``SuperSim.single_qubit_marginals`` on a
  100-qubit, 5-round near-Clifford HWEA, checked against MPS marginals.
  It is the workload where fragment evaluation dominates, but it is not
  in ``BENCHMARK.json``: its interpreter-bound calls follow the shared
  host's speed drift, and its run-to-run spread exceeded the 0.25 bound;
* ``qaoa22_exact`` - exact ``SuperSim.run`` on a 22-qubit near-Clifford
  QAOA circuit, checked against extended-stabilizer amplitudes;
* ``repcode13_sampled`` - 5000-shot ``SuperSim.run`` on the distance-13
  phase code with one T gate, Hellinger-checked against the extended
  stabilizer on the sampled support;
* ``service_sweep`` - two ``ServiceClient`` threads sweeping through an
  in-process coordinator and one worker subprocess, checked against a
  statevector P(0), across clients, and bit for bit against a local
  ``SuperSim.sweep`` replay of a seeded sample of the sweeps.

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` is the separate traced run: it recomposes each call from
the public stage functions with a span around every stage and reports
the per-layer metrics; its outputs must be bit-identical to the
untraced calls.  Every run appends one record (metrics, sample counts,
provenance) to ``e2ebench/_results/history.jsonl``; a traced run also
writes its spans under ``e2ebench/_results/spans/``.  The last line of
standard output is a JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when any operation failed or
its output disagreed with the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from tracing import KERNELS, Tracer, count, duration, total

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "_results"

#: set-up is repeated this many times per run and its median reported
SETUP_REPS = 3

WORKLOADS = ("hwea100_marginals", "qaoa22_exact", "repcode13_sampled", "service_sweep")

END_TO_END = {
    "setup_s": "s",
    "call_s_p50": "s",
    "cpu_s_per_call": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

KERNEL_METRICS = {
    f"kernel.{k}.{field}": unit
    for k in KERNELS
    for field, unit in (("s", "s"), ("calls", "count"))
}

PER_LAYER = {
    "cut.s": "s",
    "route.s": "s",
    "plan.cuts": "count",
    "plan.fragments": "count",
    "plan.variants": "count",
    "evaluate.s": "s",
    "evaluate.jobs": "count",
    "evaluate.unique_jobs": "count",
    "evaluate.cache_hits": "count",
    "evaluate.cache_misses": "count",
    "evaluate.faults": "count",
    "tomography.s": "s",
    "tomography.calls": "count",
    "tomography.bytes": "computed_B",
    "reconstruct.s": "s",
    "reconstruct.calls": "count",
    "reconstruct.terms_total": "count",
    "reconstruct.terms_skipped": "count",
    "reconstruct.peak_window_entries": "count",
    **KERNEL_METRICS,
    "service.requests": "count",
    "service.jobs_dispatched": "count",
    "service.jobs_local": "count",
    "service.jobs_completed": "count",
    "service.jobs_requeued": "count",
    "service.rejected": "count",
    "service.errors": "count",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.cache_lookups": "count",
    "service.cache_hit_ratio": "ratio",
    "service.worker_peak_inflight": "count",
    "service.worker_peak_rss_mb": "MB",
    "service.point_s_p50": "s",
    "service.point_s_p95": "s",
    "service.engine_s_p50": "s",
    "service.overhead_s_p50": "s",
    "estimate.total_cost": "cost",
    "estimate.reconstruction_cost": "cost",
    "unaccounted_frac": "frac",
    "trace.overhead_frac": "frac",
}

#: counters of ``ServiceClient.stats()`` reported as deltas over the run
SERVICE_COUNTERS = (
    "requests",
    "jobs_dispatched",
    "jobs_local",
    "jobs_completed",
    "jobs_requeued",
    "rejected",
    "errors",
)

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values) -> float:
    return float(statistics.median(values))


class Report:
    """Named metrics with unit and sample count, plus provenance."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.extra: dict = {}

    def put(self, name: str, unit: str, value, n: int) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "n": int(n)}


# -- per-layer arithmetic ------------------------------------------------------


def traced_call_metrics(info: dict, spans: list[dict]) -> dict:
    """Per-layer numbers of one traced call from its spans and counters."""
    plan_ids = {s["id"] for s in spans if s["name"] == "SuperSim.plan"}
    cut_in_plan = sum(
        duration(s) for s in spans if s["name"] == "SuperSim.cut" and s["parent"] in plan_ids
    )
    out = dict(info)
    out["cut.s"] = total(spans, "SuperSim.cut")
    out["route.s"] = total(spans, "SuperSim.plan") - cut_in_plan
    out["evaluate.s"] = total(spans, "FragmentEvaluator.evaluate_all")
    out["tomography.s"] = total(spans, "build_fragment_tensor")
    out["tomography.calls"] = count(spans, "build_fragment_tensor")
    out["reconstruct.s"] = total(spans, "reconstruct_distribution")
    out["reconstruct.calls"] = count(spans, "reconstruct_distribution")
    out["stage_sum_s"] = sum(duration(s) for s in spans if s["parent"] is None)
    return out


def put_layer_medians(report: Report, per_call: list[dict]) -> None:
    for name, unit in PER_LAYER.items():
        if per_call and name in per_call[0]:
            report.put(name, unit, median([c[name] for c in per_call]), len(per_call))


def put_accounting(report: Report, per_call, traced_walls, untraced_walls) -> None:
    base = median(untraced_walls)
    report.put(
        "unaccounted_frac",
        "frac",
        1.0 - median([c["stage_sum_s"] for c in per_call]) / base,
        len(per_call),
    )
    report.put("trace.overhead_frac", "frac", median(traced_walls) / base - 1.0, len(traced_walls))


def timings_crosscheck(timings_list) -> dict:
    """Medians of ``SuperSimResult.timings`` beside the spans."""
    timings_list = [t for t in timings_list if t]
    if not timings_list:
        return {}
    keys = sorted(set().union(*timings_list))
    return {
        k: median([t.get(k, 0.0) for t in timings_list]) for k in keys
    }


# -- workloads -------------------------------------------------------------------


def run_local(name: str, args, report: Report, tally, import_s: float):
    import local

    workload = local.WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        pool = workload.build_pool(args.seed)
        workload.warm_up(pool, tally)
        setup_times.append(time.perf_counter() - start)
    report.put("setup_s", "s", import_s + median(setup_times), len(setup_times))
    report.extra["instances"] = [
        {"draw": inst.draw, **inst.plan_shape, **inst.estimate, **inst.plan_detail}
        for inst in pool
    ]
    report.extra["plan_shape_changes"] = workload.shape_changes(pool)

    tracer = None
    if args.trace:
        tracer = Tracer()
        m = workload.measure_traced(pool, args.seconds, tracer, tally)
    else:
        m = workload.measure(pool, args.seconds, tally)
    walls = [c.wall_s for c in m.calls]
    if walls:
        report.put("call_s_p50", "s", median(walls), len(walls))
        report.put("cpu_s_per_call", "s", sum(c.cpu_s for c in m.calls) / len(walls), len(walls))
        report.put("points_per_s", "1/s", len(walls) / sum(walls), len(walls))
    report.extra["timings_crosscheck"] = timings_crosscheck([c.timings for c in m.calls])
    if args.trace and m.traced:
        per_call = [traced_call_metrics(info, spans) for _, info, spans in m.traced]
        put_layer_medians(report, per_call)
        put_accounting(report, per_call, [s.wall_s for s, _, _ in m.traced], walls)
        for name_ in PER_LAYER:
            if name_.startswith("service."):
                report.put(name_, PER_LAYER[name_], 0.0, 0)
    return tracer


def run_service(args, report: Report, tally, import_s: float):
    import local
    import service
    from benchlib import percentile, samples_beyond

    stack = None
    setup_times = []
    warm_points = []
    try:
        for rep in range(SETUP_REPS):
            if stack is not None:
                stack.close()
                stack = None
            start = time.perf_counter()
            stack = service.Stack(SRC, args.seed)
            warm_points = service.warm_up(stack, args.seed, tally)
            setup_times.append(time.perf_counter() - start)
        report.put("setup_s", "s", import_s + median(setup_times), len(setup_times))
        planner = service.local_sim(args.seed)
        facts = local.plan_facts(
            planner.plan(service.make_circuit(service.thetas(args.seed, 0, 0)[0]))
        )
        planner.close()
        report.extra["instances"] = [
            {**facts["plan_shape"], **facts["estimate"], **facts["plan_detail"]}
        ]
        run = service.measure(stack, args.seed, args.seconds, tally)
    finally:
        if stack is not None:
            stack.close()

    # untimed: replay a seeded sample of the sweeps locally, then check
    # every point against the statevector, the other client and the replay
    replayed, engine_s = service.replay_sweeps(run.points, args.seed)
    service.check_points(warm_points + run.points, replayed, args.seed, tally)
    report.extra["replayed_points"] = len(replayed)

    if run.sweep_walls:
        report.put("call_s_p50", "s", median(run.sweep_walls), len(run.sweep_walls))
        report.put("cpu_s_per_call", "s", run.cpu_s / len(run.sweep_walls), len(run.sweep_walls))
    report.put("points_per_s", "1/s", run.window_points / run.window_s, run.window_points)
    latencies = [p.latency_s for p in run.points]
    point_p50 = percentile(latencies, 50)
    report.put("service.point_s_p50", "s", point_p50, len(latencies))
    report.put("service.point_s_p95", "s", percentile(latencies, 95), len(latencies))
    report.put("service.worker_peak_rss_mb", "MB", run.worker_peak_rss_mb, 1)
    report.extra["points_beyond_p95"] = samples_beyond(len(latencies), 95)

    tracer = None
    if args.trace:
        tracer = Tracer()
        before, after = run.stats_before, run.stats_after
        for key in SERVICE_COUNTERS:
            report.put(f"service.{key}", "count", after[key] - before[key], 1)
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        report.put("service.cache_hits", "count", hits, 1)
        report.put("service.cache_misses", "count", misses, 1)
        report.put("service.cache_lookups", "count", hits + misses, 1)
        report.put(
            "service.cache_hit_ratio",
            "ratio",
            hits / (hits + misses) if hits + misses else 0.0,
            hits + misses,
        )
        report.put(
            "service.worker_peak_inflight",
            "count",
            max((w["peak_inflight"] for w in after["workers"].values()), default=0),
            len(after["workers"]),
        )
        traced = service.traced_replay(
            run.points, replayed, args.seed, args.seconds / 2, tracer, tally
        )
        report.put("service.engine_s_p50", "s", median(engine_s), len(engine_s))
        report.put("service.overhead_s_p50", "s", point_p50 - median(engine_s), len(latencies))
        per_call = [traced_call_metrics(info, spans) for _, info, spans, _ in traced]
        put_layer_medians(report, per_call)
        put_accounting(report, per_call, [s.wall_s for s, _, _, _ in traced], engine_s)
        report.extra["timings_crosscheck"] = timings_crosscheck([t for _, _, _, t in traced])
    return tracer


# -- entry point ---------------------------------------------------------------


def provenance(args) -> dict:
    from benchlib import blas_threads, git_revision
    from repro import kernels
    from repro.backends.calibration import host_fingerprint

    return {
        "host_fingerprint": host_fingerprint(),
        "kernel_tier": kernels.active_tier(),
        "blas_threads": blas_threads(),
        "git_revision": git_revision(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one table of metrics."""
    import subprocess

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        if proc.returncode != 0 and not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC} has no repro package)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from benchlib import Tally, peak_rss_mb

    if args.workload == "service_sweep":
        import service  # noqa: F401  (import time is part of set-up)
    else:
        import local  # noqa: F401
    import_s = time.perf_counter() - start

    report = Report()
    tally = Tally()
    if args.workload == "service_sweep":
        tracer = run_service(args, report, tally, import_s)
    else:
        tracer = run_local(args.workload, args, report, tally, import_s)
    report.put("peak_rss_mb", "MB", peak_rss_mb(), 1)

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in report.metrics]
    if missing:
        tally.fail(f"metrics not measured: {', '.join(missing)}")
    correct = tally.failed == 0

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = {
        "utc": stamp,
        "provenance": provenance(args),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac if tally.attempted else None,
        "failures": tally.reasons[:50],
        "metrics": report.metrics,
        **report.extra,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with (RESULTS / "history.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        tracer.write(
            RESULTS / "spans" / f"{args.workload}-seed{args.seed}-{stamp}-{os.getpid()}.jsonl",
            record["provenance"],
        )

    for name, m in report.metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']} (n={m['n']})")
    if report.extra.get("timings_crosscheck"):
        print(
            "SuperSimResult.timings medians: "
            + json.dumps({k: round(v, 6) for k, v in report.extra["timings_crosscheck"].items()})
        )
    if "points_beyond_p95" in report.extra:
        print(f"points beyond p95: {report.extra['points_beyond_p95']} (at least 10 needed)")
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"plan/instances: {json.dumps(report.extra.get('instances', []))}")
    for change in report.extra.get("plan_shape_changes", []):
        print(f"plan shape changed: {change}")
    print(
        f"failed_frac = {tally.failed}/{tally.attempted}"
        + "".join(f"\n  failure: {r}" for r in tally.reasons[:10])
    )
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": report.metrics[name]["value"], "unit": unit}
            for name, unit in wanted.items()
            if name in report.metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

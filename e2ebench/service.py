"""The service workload: two clients sweeping through one coordinator.

The coordinator runs on a thread of the benchmark process and one worker
runs as a subprocess (``python -m repro.service.worker``).  Two
``ServiceClient`` threads each run sweeps back to back (a closed loop)
over the 10-qubit theta circuit of ``benchmarks/soak_service.py``
with 1000 shots.  Each sweep has
``POINTS_PER_SWEEP`` angles: half are the same for both clients
(shared-cache hits for whichever client comes second), half are the
client's own.  Every sweep uses fresh angles, so
cache misses continue for the whole run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from benchlib import CpuClock, Tally, process_peak_rss_mb
from local import CallSample, Instance, RunWorkload, plan_facts
from repro.backends.cache import VariantCache
from repro.core import ExecutionConfig, SamplingConfig, SuperSim
from repro.service import Coordinator, ServiceClient
from repro.statevector import StatevectorSimulator

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))
# the 10-qubit theta circuit: GHZ ladder, ZPow(theta) in the middle, ladder undone
from benchmarks.soak_service import make_circuit  # noqa: E402

CLIENTS = 2
SHOTS = 1000
POINTS_PER_SWEEP = 20
WARM_UP_POINTS = 2
#: sweep index whose angles only the warm-up uses
WARM_UP_SWEEP = 2**31
#: fewest sweep calls per client, whatever ``--seconds`` says
MIN_SWEEPS = 2
#: served sweeps replayed through local SuperSim.sweep after every run
REPLAYED_SWEEPS = 8
REGISTER_TIMEOUT_S = 60.0


def thetas(seed: int, sweep: int, client: int) -> list[float]:
    """Angles of one sweep: a half shared by both clients and a private half.

    Client 0 sweeps the shared half first and client 1 last, so while
    both run the same sweep index client 1 finds the shared points in
    the service's cache.  Angles stay inside (0, 0.5) turns, away from
    the Clifford points, so every circuit keeps its non-Clifford gate.
    """
    half = POINTS_PER_SWEEP // 2
    shared = np.random.default_rng([seed, sweep, 0]).uniform(0.02, 0.48, half)
    private = np.random.default_rng([seed, sweep, 1 + client]).uniform(
        0.02, 0.48, POINTS_PER_SWEEP - half
    )
    halves = (shared, private) if client == 0 else (private, shared)
    return [float(t) for t in np.concatenate(halves)]


@dataclass
class Point:
    client: int
    sweep: int
    index: int
    theta: float
    latency_s: float
    arrived: float  # perf_counter() when the point reached the client
    distribution: object


@dataclass
class ServiceRun:
    points: list[Point] = field(default_factory=list)
    sweep_walls: list[float] = field(default_factory=list)
    #: points that arrived within the measured window, and its length
    window_points: int = 0
    window_s: float = 0.0
    cpu_s: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    worker_peak_rss_mb: float = 0.0


class Stack:
    """Coordinator thread, one worker subprocess and the two clients."""

    def __init__(self, src: Path, seed: int):
        self.coordinator = Coordinator()
        self.coordinator.start_in_thread()
        self.worker = None
        self.clients: list[ServiceClient] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        try:
            self.worker = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service.worker",
                    "--connect", self.coordinator.address,
                    "--slots", "2", "--name", "bench-w0",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
            )
            sampling = SamplingConfig(shots=SHOTS, seed=seed)
            self.clients = [
                ServiceClient(
                    self.coordinator.address, sampling=sampling, tenant=f"client-{c}"
                )
                for c in range(CLIENTS)
            ]
            deadline = time.monotonic() + REGISTER_TIMEOUT_S
            while not self.clients[0].stats()["workers"]:
                if time.monotonic() > deadline or self.worker.poll() is not None:
                    raise RuntimeError("the worker never registered")
                time.sleep(0.02)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.coordinator.shutdown()
        if self.worker is None:
            return
        try:
            self.worker.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait(timeout=10)


class ServicePoints(RunWorkload):
    """One sweep point as a local ``SuperSim.run``, for the traced replay."""

    name = "service_sweep"
    shape = None
    pool_size = 0

    def __init__(self):
        # one cache across the replayed points, as SuperSim.sweep shares one
        self.cache = VariantCache()

    def make_sim(self, inst):
        return SuperSim(
            sampling=SamplingConfig(shots=SHOTS, seed=inst.sample_seed),
            execution=ExecutionConfig(cache=self.cache),
        )

    def prepare_oracle(self, inst, rng):
        inst.oracle = float(StatevectorSimulator().probabilities(inst.circuit)[0])

    def check(self, inst, output):
        return oracles.check_p0(
            float(output[0]), inst.oracle, inst.plan_shape["plan.cuts"], SHOTS
        )


def _sweep(client: ServiceClient, thetas_: list[float], cid: int, sweep: int, out):
    """One sweep call; latency of a point is the time since the previous one."""
    start = last = time.perf_counter()
    received = 0
    for point in client.sweep(make_circuit, thetas_):
        now = time.perf_counter()
        out.append(
            Point(
                cid, sweep, point.index, point.params, now - last, now,
                point.distribution,
            )
        )
        last = now
        received += 1
    return time.perf_counter() - start, received


def warm_up(stack: Stack, seed: int, tally: Tally) -> list[Point]:
    """A short untimed sweep per client, on angles the run never uses."""
    points: list[Point] = []
    for cid, client in enumerate(stack.clients):
        grid = thetas(seed, WARM_UP_SWEEP, cid)[:WARM_UP_POINTS]
        try:
            _sweep(client, grid, cid, WARM_UP_SWEEP, points)
        except Exception as exc:
            tally.fail(f"warm-up sweep raised {type(exc).__name__}: {exc}")
    return points


def measure(stack: Stack, seed: int, seconds: float, tally: Tally) -> ServiceRun:
    run = ServiceRun()
    run.stats_before = stack.clients[0].stats()
    cpu = CpuClock(live_pids=[stack.worker.pid])
    lock = threading.Lock()

    def client_loop(cid: int) -> None:
        client = stack.clients[cid]
        sweep = 0
        while time.perf_counter() < deadline or sweep < MIN_SWEEPS:
            grid = thetas(seed, sweep, cid)
            points: list[Point] = []
            try:
                wall, received = _sweep(client, grid, cid, sweep, points)
                error = None
            except Exception as exc:
                wall, received = None, len(points)
                error = f"{type(exc).__name__}: {exc}"
            with lock:
                run.points.extend(points)
                if wall is not None:
                    run.sweep_walls.append(wall)
                for _ in range(len(grid) - received):
                    tally.fail(
                        f"client {cid} sweep {sweep}: point missing"
                        + (f" ({error})" if error else "")
                    )
            sweep += 1

    cpu0 = cpu.now()
    start = time.perf_counter()
    deadline = start + seconds
    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    run.cpu_s = cpu.now() - cpu0
    # sweeps started before the deadline finish after it, one client at a
    # time; throughput counts only the points that arrived inside the window
    arrivals = [p.arrived for p in run.points if p.arrived <= deadline]
    run.window_points = len(arrivals)
    run.window_s = max(arrivals, default=deadline) - start
    run.stats_after = stack.clients[0].stats()
    try:
        run.worker_peak_rss_mb = process_peak_rss_mb(stack.worker.pid)
    except (OSError, ValueError) as exc:
        tally.fail(f"worker memory unreadable, the worker has exited? ({exc})")
    return run


def local_sim(seed: int) -> SuperSim:
    """A local ``SuperSim`` with the clients' sampling configuration."""
    return SuperSim(sampling=SamplingConfig(shots=SHOTS, seed=seed))


def replay_sweeps(points: list[Point], seed: int) -> tuple[dict, list[float]]:
    """Replay a seeded sample of the served sweeps through local ``SuperSim.sweep``.

    ``REPLAYED_SWEEPS`` sweeps (of both clients) are replayed on their
    full grids, in order, on one ``SuperSim`` with the clients' sampling
    configuration.  Returns the local result of every replayed point,
    keyed ``(client, sweep, index)``, and the engine seconds per point.
    """
    grids = sorted({(p.client, p.sweep) for p in points})
    rng = np.random.default_rng([seed, len(grids)])
    picks = rng.choice(len(grids), size=min(REPLAYED_SWEEPS, len(grids)), replace=False)
    sim = local_sim(seed)
    replayed: dict[tuple[int, int, int], object] = {}
    engine_s: list[float] = []
    for cid, sweep in sorted(grids[int(i)] for i in picks):
        last = time.perf_counter()
        for point in sim.sweep(make_circuit, thetas(seed, sweep, cid)):
            now = time.perf_counter()
            engine_s.append(now - last)
            replayed[(cid, sweep, point.index)] = point.result
            last = now
    sim.close()
    return replayed, engine_s


def check_points(points: list[Point], replayed: dict, seed: int, tally: Tally) -> None:
    """Check every served point against three references.

    * the statevector P(0), within ``oracles.p0_tolerance`` for the
      number of cuts of a local plan of the point's circuit;
    * the other client's result wherever both swept the same angle,
      bit for bit;
    * the local ``SuperSim.sweep`` replay of :func:`replay_sweeps`, bit
      for bit, where the point's sweep was replayed.

    Errors of different points are not independent (every point reuses
    the cached samples of the angle-independent Clifford fragment), so
    each point is checked on its own rather than through an average.
    """
    planner = local_sim(seed)
    reference: dict[float, tuple[float, int]] = {}
    by_theta: dict[float, Point] = {}
    for p in points:
        if p.theta not in reference:
            circuit = make_circuit(p.theta)
            reference[p.theta] = (
                float(StatevectorSimulator().probabilities(circuit)[0]),
                planner.plan(circuit).num_cuts,
            )
        exact, num_cuts = reference[p.theta]
        reason = oracles.check_p0(float(p.distribution[0]), exact, num_cuts, SHOTS)
        first = by_theta.setdefault(p.theta, p)
        if reason is None and first is not p and not oracles.same_distribution(
            first.distribution, p.distribution
        ):
            reason = (
                f"clients {first.client} and {p.client} disagree at theta={p.theta}"
            )
        local = replayed.get((p.client, p.sweep, p.index))
        if reason is None and local is not None and not oracles.same_distribution(
            p.distribution, local.distribution
        ):
            reason = "the local SuperSim.sweep replay differs from the service"
        if reason is None:
            tally.ok()
        else:
            tally.fail(f"client {p.client} sweep {p.sweep} point {p.index}: {reason}")
    planner.close()


def traced_replay(
    points: list[Point], replayed: dict, seed: int, budget_s: float, tracer, tally: Tally
) -> list[tuple]:
    """Recompose the replayed points as ``SuperSim.run`` from stage functions.

    Goes through the points :func:`replay_sweeps` replayed, in sweep
    order, until ``budget_s`` is spent (at least one).  Each traced
    point is one operation: it fails unless it passes the P(0) oracle
    and reproduces the service's distribution bit for bit.

    Returns, per traced point, ``(CallSample, info, spans,
    SuperSimResult.timings)`` of the replay.
    """
    served = sorted(
        (p for p in points if (p.client, p.sweep, p.index) in replayed),
        key=lambda p: (p.client, p.sweep, p.index),
    )
    workload = ServicePoints()
    planner = local_sim(seed)
    cpu = CpuClock()
    traced: list[tuple] = []
    deadline = time.perf_counter() + budget_s
    for p in served:
        if traced and time.perf_counter() > deadline:
            break
        circuit = make_circuit(p.theta)
        inst = Instance(
            circuit=circuit,
            draw=p.sweep,
            sample_seed=seed,
            **plan_facts(planner.plan(circuit)),
        )
        workload.prepare_oracle(inst, None)
        call_id = tracer.new_call()
        output, info, wall, cpu_s = workload.timed(
            lambda i: workload.traced_with_kernels(i, tracer), inst, cpu
        )
        result = replayed[(p.client, p.sweep, p.index)]
        traced.append(
            (CallSample(wall, cpu_s), info, tracer.of_call(call_id), dict(result.timings))
        )
        reason = workload.check(inst, output)
        if reason is None and not oracles.same_distribution(p.distribution, output):
            reason = "the traced replay differs from the service"
        if reason is None:
            tally.ok()
        else:
            tally.fail(f"traced replay of theta={p.theta}: {reason}")
    planner.close()
    return traced

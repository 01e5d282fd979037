"""The three single-process workloads: paper circuits through public calls.

Each workload has a fixed list of twelve generator seeds ("draws"),
chosen once when the benchmark was written: the first twelve values of
``np.random.default_rng(20261017).integers(2**62)`` on which the program's plan had the shape (cuts,
fragments, variants) that defines the workload.  Other shapes of the
same generators are up to 10x slower or 1 GB larger, which would make a
run's time depend on its luck.  The workload seed picks the pool from
that list, so a seed changes the circuits but not the kind of work, and
no circuit is picked by what the program under test does with it.  A call is one
public entry point on a fresh ``SuperSim`` (``parallel=1``, the default),
so no variant cache carries over between calls.

The traced variant of each call recomposes the same entry point from the
public stage functions (``SuperSim.cut`` / ``SuperSim.plan``,
``FragmentEvaluator.evaluate_all``, ``build_fragment_tensor``,
``reconstruct_distribution``) with a span around every call, so its
output must be bit-identical to the untraced call's.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from benchlib import CpuClock, Tally
from tracing import KERNELS
from repro import kernels
from repro.apps.hwea import HWEA
from repro.apps.qaoa import near_clifford_qaoa
from repro.apps.qec import near_clifford_phase_code
from repro.core import SamplingConfig, SuperSim
from repro.core.reconstruction import check_dense_width, reconstruct_distribution
from repro.core.tomography import build_fragment_tensor
from repro.extended_stabilizer import ExtendedStabilizerSimulator
from repro.mps import MPSSimulator

#: fewest timed calls a run makes, whatever ``--seconds`` says
MIN_CALLS = 3
#: outcomes checked against the extended stabilizer per exact call
TOP_OUTCOMES = 32
RANDOM_OUTCOMES = 32


@dataclass
class Instance:
    circuit: object
    draw: int
    sample_seed: int
    plan_shape: dict
    estimate: dict
    plan_detail: dict
    oracle: object = None
    random_outcomes: np.ndarray | None = None


@dataclass
class CallSample:
    wall_s: float
    cpu_s: float
    timings: dict | None = None


@dataclass
class Measurement:
    calls: list[CallSample] = field(default_factory=list)
    traced: list[tuple[CallSample, dict, list]] = field(default_factory=list)


def _lookup(distribution, outcomes) -> np.ndarray:
    """Probabilities of integer outcomes in a distribution (0 if absent)."""
    keys = np.asarray(distribution.keys_array, dtype=np.uint64)
    values = np.asarray(distribution.values_array, dtype=float)
    wanted = np.asarray(outcomes, dtype=np.uint64)
    if len(keys) == 0:
        return np.zeros(len(wanted))
    if not np.all(keys[:-1] < keys[1:]):
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[pos] == wanted, values[pos], 0.0)


def _stage_info(evaluator, tensors, stats_list) -> dict:
    stats = evaluator.last_stats
    return {
        "evaluate.jobs": stats["jobs"],
        "evaluate.unique_jobs": stats["unique_jobs"],
        "evaluate.cache_hits": stats["cache_hits"],
        "evaluate.cache_misses": stats["cache_misses"],
        "evaluate.faults": len(evaluator.faults.events),
        "tomography.bytes": sum(t.nbytes for t in tensors),
        "reconstruct.terms_total": sum(s.terms_total for s in stats_list),
        "reconstruct.terms_skipped": sum(s.terms_skipped for s in stats_list),
        "reconstruct.peak_window_entries": max(s.peak_window_entries for s in stats_list),
    }


def plan_facts(plan) -> dict:
    """Shape, routing and uncalibrated cost prediction of an ExecutionPlan."""
    estimate = plan.estimate()
    return {
        "plan_shape": {
            "plan.cuts": plan.num_cuts,
            "plan.fragments": plan.num_fragments,
            "plan.variants": plan.num_variants,
        },
        "estimate": {
            "estimate.total_cost": float(estimate.total_cost),
            "estimate.reconstruction_cost": float(estimate.reconstruction_cost),
        },
        "plan_detail": {
            "backends": list(plan.backend_names),
            "fragment_qubits": [f.n_qubits for f in plan.cut_circuit.fragments],
        },
    }


class LocalWorkload:
    """A public-entry call on a seeded pool of the workload's fixed circuits."""

    name: str
    #: generator seeds of the workload's circuits (see the module docstring)
    draws: tuple[int, ...]
    #: plan shape (cuts, fragments, variants) the draws had when chosen
    shape: tuple[int, int, int]
    pool_size: int

    def draw_circuit(self, rng: np.random.Generator):
        raise NotImplementedError

    def make_sim(self, inst: Instance) -> SuperSim:
        return SuperSim()

    def call(self, inst: Instance):
        """The untraced public call: ``(output, SuperSimResult.timings | None)``."""
        raise NotImplementedError

    def traced_call(self, inst: Instance, tracer):
        """The same call recomposed from stage functions: ``(output, info)``."""
        raise NotImplementedError

    def prepare_oracle(self, inst: Instance, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def check(self, inst: Instance, output) -> str | None:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        raise NotImplementedError

    # -- set-up ----------------------------------------------------------------

    def build_pool(self, seed: int) -> list[Instance]:
        """``pool_size`` of the workload's fixed draws, picked by ``seed``, with oracles.

        The pool never asks the program which circuits to take.  Each
        instance records the plan the program makes for it now; a plan
        of another shape than the workload's is reported by
        :meth:`shape_changes`, and the run goes on.
        """
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(self.draws), size=self.pool_size, replace=False)
        pool: list[Instance] = []
        for pick in picks:
            draw = self.draws[int(pick)]
            circuit = self.draw_circuit(np.random.default_rng(draw))
            inst = Instance(
                circuit=circuit,
                draw=draw,
                sample_seed=int(rng.integers(2**31)),
                **plan_facts(SuperSim().plan(circuit)),
            )
            self.prepare_oracle(inst, rng)
            pool.append(inst)
        return pool

    def shape_changes(self, pool: list[Instance]) -> list[str]:
        """Instances whose plan differs from the shape their draw was chosen for."""
        expected = dict(zip(("plan.cuts", "plan.fragments", "plan.variants"), self.shape))
        return [
            f"draw {inst.draw}: plan {inst.plan_shape}, chosen for {expected}"
            for inst in pool
            if inst.plan_shape != expected
        ]

    # -- measurement -----------------------------------------------------------

    def timed(self, fn, inst: Instance, cpu: CpuClock):
        # collect the previous call's garbage now, not inside this call
        gc.collect()
        cpu0 = cpu.now()
        start = time.perf_counter()
        output, extra = fn(inst)
        wall = time.perf_counter() - start
        return output, extra, wall, cpu.now() - cpu0

    def _checked(self, tally: Tally, inst: Instance, output, what: str) -> None:
        reason = self.check(inst, output)
        if reason is None:
            tally.ok()
        else:
            tally.fail(f"{what}: {reason}")

    def warm_up(self, pool: list[Instance], tally: Tally) -> None:
        """One untimed call; its oracle check still counts."""
        try:
            output, _ = self.call(pool[0])
        except Exception as exc:  # the run reports it as a failed operation
            tally.fail(f"warm-up raised {type(exc).__name__}: {exc}")
            return
        self._checked(tally, pool[0], output, "warm-up")

    def traced_with_kernels(self, inst: Instance, tracer):
        """:meth:`traced_call` plus the kernel counters and plan facts of the call."""
        snap = kernels.counters_snapshot()
        output, info = self.traced_call(inst, tracer)
        after = kernels.counters_snapshot()
        seconds_by_kernel = kernels.timings_since(snap)
        for k in KERNELS:
            info[f"kernel.{k}.s"] = seconds_by_kernel.get(k, 0.0)
            info[f"kernel.{k}.calls"] = after.get(k, (0, 0.0))[0] - snap.get(k, (0, 0.0))[0]
        info.update(inst.plan_shape)
        info.update(inst.estimate)
        return output, info

    def measure(self, pool, seconds: float, tally: Tally) -> Measurement:
        """Closed loop of untraced calls for ``seconds`` (at least MIN_CALLS)."""
        m = Measurement()
        cpu = CpuClock()
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < MIN_CALLS:
            inst = pool[i % len(pool)]
            i += 1
            try:
                output, timings, wall, cpu_s = self.timed(self.call, inst, cpu)
            except Exception as exc:
                tally.fail(f"call raised {type(exc).__name__}: {exc}")
                continue
            m.calls.append(CallSample(wall, cpu_s, timings))
            self._checked(tally, inst, output, f"call {i}")
        return m

    def measure_traced(self, pool, seconds: float, tracer, tally: Tally) -> Measurement:
        """Pairs of untraced and traced calls on one instance, order alternating.

        Both outputs are oracle-checked, and the traced one must be
        bit-identical to the untraced one.
        """
        m = Measurement()
        cpu = CpuClock()
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < MIN_CALLS:
            inst = pool[i % len(pool)]
            call_id = tracer.new_call()

            def traced(inst):
                return self.traced_with_kernels(inst, tracer)

            order = (self.call, traced) if i % 2 == 0 else (traced, self.call)
            i += 1
            results = {}
            try:
                for fn in order:
                    results[fn] = self.timed(fn, inst, cpu)
            except Exception as exc:
                tally.fail(f"traced pair {i} raised {type(exc).__name__}: {exc}")
                continue
            plain_out, timings, plain_wall, plain_cpu = results[self.call]
            traced_out, info, traced_wall, traced_cpu = results[traced]
            m.calls.append(CallSample(plain_wall, plain_cpu, timings))
            m.traced.append(
                (CallSample(traced_wall, traced_cpu), info, tracer.of_call(call_id))
            )
            self._checked(tally, inst, plain_out, f"call {i}")
            reason = self.check(inst, traced_out)
            if reason is None and not self.same(plain_out, traced_out):
                reason = "output is not bit-identical to the untraced call"
            if reason is None:
                tally.ok()
            else:
                tally.fail(f"traced call {i}: {reason}")
        return m


class HweaMarginals(LocalWorkload):
    name = "hwea100_marginals"
    draws = (
        3816470692012756117,
        4414556091431513983,
        3549026975348748968,
        2523998268414982874,
        1676923277282610513,
        1780081750722934170,
        2324674548284095190,
        1283890793908748601,
        2599063274647289911,
        3989718260996230412,
        3278095080956610828,
        278186810347087020,
    )
    shape = (2, 2, 24)
    pool_size = 4

    def draw_circuit(self, rng):
        return HWEA(100, 5).near_clifford_instance(num_t=1, rng=rng)

    def call(self, inst):
        return self.make_sim(inst).single_qubit_marginals(inst.circuit), None

    def traced_call(self, inst, tracer):
        """``SuperSim.single_qubit_marginals``, stage by stage.

        This entry point has no plan stage: fragments are routed inside
        ``evaluate_all``, so the call's ``route.s`` reads 0.
        """
        sim = self.make_sim(inst)
        circuit = inst.circuit
        cc = tracer.call("SuperSim.cut", sim.cut, circuit)
        # the evaluator the entry point builds: SuperSim's router, no
        # assignments, so fragments are routed inside evaluate_all
        evaluator = sim._evaluator()
        data = tracer.call(
            "FragmentEvaluator.evaluate_all", evaluator.evaluate_all, cc.fragments
        )
        project = sim.sampling.tomography and sim.sampling.shots is not None
        qubits = list(circuit.measured_qubits)
        out = np.zeros((len(qubits), 2))
        all_tensors = []
        stats_list = []
        for row, q in enumerate(qubits):
            kept_locals = [
                [lq for oq, lq in f.circuit_outputs if oq == q] for f in cc.fragments
            ]
            tensors = [
                tracer.call(
                    "build_fragment_tensor",
                    build_fragment_tensor,
                    d,
                    kept,
                    snap_clifford=sim.sampling.snap_clifford,
                    project=project,
                )
                for d, kept in zip(data, kept_locals)
            ]
            dist, stats = tracer.call(
                "reconstruct_distribution",
                reconstruct_distribution,
                cc,
                tensors,
                kept_locals,
                [q],
                prune_zeros=sim.execution.prune_zeros,
            )
            dist = dist.clipped() if len(dist) else dist
            out[row, 0] = dist[0]
            out[row, 1] = dist[1]
            all_tensors.extend(tensors)
            stats_list.append(stats)
        return out, _stage_info(evaluator, all_tensors, stats_list)

    def prepare_oracle(self, inst, rng):
        circuit = inst.circuit
        if tuple(circuit.measured_qubits) != tuple(range(circuit.n_qubits)):
            raise ValueError("the MPS oracle expects every qubit measured in order")
        inst.oracle = MPSSimulator().run(circuit).single_bit_marginals()

    def check(self, inst, output):
        return oracles.check_marginals(output, inst.oracle)

    def same(self, a, b):
        return bool(np.array_equal(a, b))


class RunWorkload(LocalWorkload):
    """``SuperSim.run`` over every measured qubit (dense engine)."""

    def call(self, inst):
        result = self.make_sim(inst).run(inst.circuit)
        return result.distribution, dict(result.timings)

    def traced_call(self, inst, tracer):
        """``SuperSim.run`` = ``plan`` then the execute stages, one by one."""
        sim = self.make_sim(inst)
        # plan() calls self.cut: an instance attribute records it as a
        # child span of SuperSim.plan without touching the class
        sim.cut = tracer.wrap("SuperSim.cut", sim.cut)
        plan = tracer.call("SuperSim.plan", sim.plan, inst.circuit)
        cc = plan.cut_circuit
        rc = sim.reconstruction
        keep = list(plan.keep_qubits)
        dense = rc.mode == "full" or (
            rc.mode == "auto" and len(keep) <= rc.max_dense_bits
        )
        if not dense:
            raise ValueError("the recomposition covers the dense engine only")
        # the evaluator SuperSim._execute_plan builds: the plan's backends,
        # SuperSim's router and executor, so evaluate_all routes nothing
        evaluator = sim._evaluator(
            assignments={f.index: b for f, b in zip(cc.fragments, plan._backends)}
        )
        data = tracer.call(
            "FragmentEvaluator.evaluate_all", evaluator.evaluate_all, cc.fragments
        )
        check_dense_width(len(keep), rc.max_dense_bits)
        keep_set = set(keep)
        kept_locals = [
            [lq for oq, lq in f.circuit_outputs if oq in keep_set] for f in cc.fragments
        ]
        project = sim.sampling.tomography and sim.sampling.shots is not None
        tensors = [
            tracer.call(
                "build_fragment_tensor",
                build_fragment_tensor,
                d,
                kept,
                snap_clifford=sim.sampling.snap_clifford,
                project=project,
            )
            for d, kept in zip(data, kept_locals)
        ]
        raw, stats = tracer.call(
            "reconstruct_distribution",
            reconstruct_distribution,
            cc,
            tensors,
            kept_locals,
            keep,
            prune_zeros=sim.execution.prune_zeros,
            max_dense_bits=rc.max_dense_bits,
        )
        dist = raw.clipped() if len(raw) else raw
        return dist, _stage_info(evaluator, tensors, [stats])

    def prepare_oracle(self, inst, rng):
        circuit = inst.circuit
        if tuple(circuit.measured_qubits) != tuple(range(circuit.n_qubits)):
            raise ValueError(
                "the extended-stabilizer oracle expects every qubit measured in order"
            )
        inst.oracle = ExtendedStabilizerSimulator().run(circuit)

    def oracle_probabilities(self, inst, outcomes) -> np.ndarray:
        rows = oracles.outcome_bit_rows(outcomes, inst.circuit.n_qubits)
        return np.abs(inst.oracle.amplitudes(rows)) ** 2

    def same(self, a, b):
        return oracles.same_distribution(a, b)


class Qaoa22Exact(RunWorkload):
    name = "qaoa22_exact"
    draws = (
        2340252344307787547,
        3549026975348748968,
        2523998268414982874,
        1676923277282610513,
        1780081750722934170,
        1250964378855134914,
        2599063274647289911,
        278186810347087020,
        2352504833226826262,
        3826830255609937135,
        2973372877422517809,
        4486022668949911394,
    )
    shape = (2, 3, 19)
    pool_size = 4

    def draw_circuit(self, rng):
        return near_clifford_qaoa(22, rounds=1, num_t=1, rng=rng)

    def prepare_oracle(self, inst, rng):
        super().prepare_oracle(inst, rng)
        n = inst.circuit.n_qubits
        inst.random_outcomes = rng.integers(0, 2**n, size=RANDOM_OUTCOMES)

    def check(self, inst, output):
        values = np.asarray(output.values_array)
        top = np.argsort(-values, kind="stable")[:TOP_OUTCOMES]
        outcomes = np.concatenate(
            [
                np.asarray(output.keys_array, dtype=np.uint64)[top],
                inst.random_outcomes.astype(np.uint64),
            ]
        )
        got = np.concatenate([values[top], _lookup(output, inst.random_outcomes)])
        return oracles.check_probabilities(
            outcomes, got, self.oracle_probabilities(inst, outcomes)
        )


class RepCodeSampled(RunWorkload):
    name = "repcode13_sampled"
    draws = (
        2340252344307787547,
        1676923277282610513,
        1780081750722934170,
        1250964378855134914,
        3989718260996230412,
        3278095080956610828,
        278186810347087020,
        4328574019914865722,
        617878124941218327,
        1594732748393114981,
        2973372877422517809,
        1166314153870644855,
    )
    shape = (1, 2, 7)
    pool_size = 3
    shots = 5000

    def draw_circuit(self, rng):
        return near_clifford_phase_code(13, num_t=1, rng=rng)

    def make_sim(self, inst):
        return SuperSim(sampling=SamplingConfig(shots=self.shots, seed=inst.sample_seed))

    def check(self, inst, output):
        keys = np.asarray(output.keys_array, dtype=np.uint64)
        return oracles.check_sampled_support(
            output.values_array, self.oracle_probabilities(inst, keys)
        )


WORKLOADS = {w.name: w for w in (HweaMarginals(), Qaoa22Exact(), RepCodeSampled())}

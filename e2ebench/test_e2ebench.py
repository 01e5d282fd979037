"""Tests of the benchmark's own pieces: arithmetic, oracles, tracing.

Small circuits stand in for the benchmark's workloads so the checks run
in seconds.  Run with ``PYTHONPATH=src python -m pytest e2ebench``.
"""

from __future__ import annotations

import numpy as np
import pytest

import benchlib
import local
import oracles
import service
from run import traced_call_metrics
from tracing import Tracer
from repro.analysis.distributions import Distribution
from repro.apps.hwea import HWEA
from repro.apps.qaoa import near_clifford_qaoa
from repro.apps.qec import near_clifford_phase_code
from repro.core import SuperSim


# -- arithmetic -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7, 200])
@pytest.mark.parametrize("q", [0, 25, 50, 95, 100])
def test_percentile_matches_linear_interpolation(n, q):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert benchlib.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        benchlib.percentile([], 50)
    with pytest.raises(ValueError):
        benchlib.percentile([1.0], 101)


def test_samples_beyond_p95():
    assert benchlib.samples_beyond(200, 95) == 10
    assert benchlib.samples_beyond(199, 95) == 10
    assert benchlib.samples_beyond(100, 95) == 5
    assert benchlib.samples_beyond(1, 50) == 0


def test_failed_frac_counts_against_attempts():
    tally = benchlib.Tally()
    for _ in range(3):
        tally.ok()
    tally.fail("oracle mismatch")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_frac == 0.25
    assert tally.reasons == ["oracle mismatch"]


def test_failed_frac_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        benchlib.Tally().failed_frac


# -- oracles reject perturbed outputs ---------------------------------------------


def _instance(workload, circuit, seed=0):
    inst = local.Instance(
        circuit=circuit,
        draw=0,
        sample_seed=11,
        **local.plan_facts(SuperSim().plan(circuit)),
    )
    workload.prepare_oracle(inst, np.random.default_rng(seed))
    return inst


def _with_values(dist, values):
    return Distribution.from_arrays(
        dist.n_bits, dist.keys_array, np.asarray(values), assume_sorted=True
    )


def test_marginal_oracle_rejects_perturbation():
    workload = local.HweaMarginals()
    inst = _instance(workload, HWEA(8, 2).near_clifford_instance(num_t=1, rng=3))
    output, _ = workload.call(inst)
    assert workload.check(inst, output) is None
    perturbed = output.copy()
    perturbed[2] += [1e-6, -1e-6]
    assert "MPS" in workload.check(inst, perturbed)


def test_amplitude_oracle_rejects_perturbation():
    workload = local.Qaoa22Exact()
    inst = _instance(workload, near_clifford_qaoa(6, rounds=1, num_t=1, rng=5))
    output, _ = workload.call(inst)
    assert workload.check(inst, output) is None
    values = np.array(output.values_array)
    values[int(np.argmax(values))] *= 1 + 1e-6
    assert "extended stabilizer" in workload.check(inst, _with_values(output, values))


def test_amplitude_oracle_checks_outcomes_missing_from_the_output():
    workload = local.Qaoa22Exact()
    inst = _instance(workload, near_clifford_qaoa(6, rounds=1, num_t=1, rng=5))
    output, _ = workload.call(inst)
    keep = np.ones(len(output), dtype=bool)
    # drop one of the randomly chosen outcomes the oracle also checks
    missing = np.searchsorted(output.keys_array, inst.random_outcomes[0])
    keep[missing] = False
    truncated = Distribution.from_arrays(
        output.n_bits, output.keys_array[keep], output.values_array[keep], assume_sorted=True
    )
    assert workload.check(inst, truncated) is not None


def test_hellinger_oracle_rejects_wrong_support():
    workload = local.RepCodeSampled()
    inst = _instance(workload, near_clifford_phase_code(3, num_t=1, rng=2))
    output, _ = workload.call(inst)
    assert workload.check(inst, output) is None
    shifted = Distribution.from_arrays(
        output.n_bits,
        output.keys_array ^ np.uint64(1),
        output.values_array,
    )
    assert "Hellinger" in workload.check(inst, shifted)


def test_p0_tolerance_scales_the_measured_sigma():
    assert oracles.p0_sigma(2, 1000) == oracles.P0_SIGMA
    assert oracles.p0_sigma(3, 1000) == pytest.approx(2 * oracles.P0_SIGMA)
    assert oracles.p0_sigma(2, 4000) == pytest.approx(oracles.P0_SIGMA / 2)
    tolerance = oracles.p0_tolerance(2, 1000)
    assert tolerance == pytest.approx(oracles.POINT_SIGMAS * oracles.P0_SIGMA)
    assert oracles.check_p0(0.9 - tolerance / 2, 0.9, 2, 1000) is None
    assert "statevector" in oracles.check_p0(0.9 - 1.5 * tolerance, 0.9, 2, 1000)


def test_service_point_oracle_rejects_wrong_angle():
    workload = service.ServicePoints()
    inst = _instance(workload, service.make_circuit(0.05))
    output, _ = workload.call(inst)
    assert workload.check(inst, output) is None
    other = _instance(workload, service.make_circuit(0.5))
    other_output, _ = workload.call(other)
    assert "statevector" in workload.check(inst, other_output)


def test_cross_client_comparison_is_bit_exact():
    dist = Distribution.from_arrays(3, np.array([0, 5], dtype=np.uint64), np.array([0.25, 0.75]))
    nudged = _with_values(dist, [0.25, np.nextafter(0.75, 1.0)])
    assert oracles.same_distribution(dist, dist)
    assert not oracles.same_distribution(dist, nudged)


def test_service_grids_share_half_their_angles():
    a, b = service.thetas(4, 0, 0), service.thetas(4, 0, 1)
    assert len(a) == len(b) == service.POINTS_PER_SWEEP
    assert len(set(a) & set(b)) == service.POINTS_PER_SWEEP // 2
    assert service.thetas(4, 1, 0) != a
    assert all(0 < t < 0.5 for t in a + b)


def _served_points(seed, thetas):
    """Points as a client would receive them, computed by a local sweep."""
    sim = service.local_sim(seed)
    return [
        service.Point(0, 0, p.index, p.params, 0.0, 0.0, p.distribution)
        for p in sim.sweep(service.make_circuit, thetas)
    ]


def test_service_points_fail_when_the_replay_differs():
    thetas = [0.1, 0.3]
    points = _served_points(7, thetas)
    local_results = {
        (0, 0, p.index): type("R", (), {"distribution": p.distribution})()
        for p in points
    }
    tally = benchlib.Tally()
    service.check_points(points, local_results, 7, tally)
    assert (tally.attempted, tally.failed) == (2, 0)

    dist = points[1].distribution
    values = np.array(dist.values_array)
    values[0] = np.nextafter(values[0], 1.0)
    local_results[(0, 0, 1)].distribution = _with_values(dist, values)
    tally = benchlib.Tally()
    service.check_points(points, local_results, 7, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "replay differs" in tally.reasons[0]


def test_service_points_fail_when_clients_disagree():
    points = _served_points(7, [0.2])
    other = service.Point(1, 0, 0, 0.2, 0.0, 0.0, _served_points(8, [0.2])[0].distribution)
    tally = benchlib.Tally()
    service.check_points(points + [other], {}, 7, tally)
    assert tally.failed == 1
    assert "disagree" in tally.reasons[0]


def test_replayed_sweeps_are_a_seeded_sample():
    points = [
        service.Point(c, s, 0, service.thetas(3, s, c)[0], 0.0, 0.0, None)
        for c in range(2)
        for s in range(6)
    ]
    replayed, engine_s = service.replay_sweeps(points, 3)
    sweeps = {(c, s) for c, s, _ in replayed}
    assert len(sweeps) == min(service.REPLAYED_SWEEPS, 12)
    assert len(replayed) == len(engine_s) == len(sweeps) * service.POINTS_PER_SWEEP
    again, _ = service.replay_sweeps(points, 3)
    assert set(again) == set(replayed)
    assert all(oracles.same_distribution(again[k].distribution, replayed[k].distribution)
               for k in replayed)


# -- pools -------------------------------------------------------------------------


class _SmallQaoa(local.Qaoa22Exact):
    draws = (11, 12, 13, 14, 15)
    shape = (0, 1, 1)  # no circuit of these draws has this plan
    pool_size = 3

    def draw_circuit(self, rng):
        return near_clifford_qaoa(6, rounds=1, num_t=1, rng=rng)


def test_pool_takes_the_fixed_draws_whatever_the_plan():
    workload = _SmallQaoa()
    pool = workload.build_pool(4)
    draws = [inst.draw for inst in pool]
    assert len(set(draws)) == 3 and set(draws) <= set(workload.draws)
    assert [inst.draw for inst in workload.build_pool(4)] == draws
    changes = workload.shape_changes(pool)
    assert len(changes) == 3 and all("chosen for" in c for c in changes)


def test_fixed_draws_are_distinct():
    for workload in local.WORKLOADS.values():
        assert len(set(workload.draws)) == len(workload.draws) >= 2 * workload.pool_size


# -- tracing ----------------------------------------------------------------------


def test_spans_record_parent_and_call():
    tracer = Tracer()
    tracer.new_call()
    inner = tracer.wrap("inner", lambda x: x + 1)
    assert tracer.call("outer", lambda: inner(1)) == 2
    outer_span, inner_span = tracer.spans
    assert outer_span["parent"] is None
    assert inner_span["parent"] == outer_span["id"]
    assert {outer_span["call"], inner_span["call"]} == {1}
    assert outer_span["start"] <= inner_span["start"] <= inner_span["end"] <= outer_span["end"]


def test_route_time_is_plan_self_time():
    spans = [
        {"name": "SuperSim.plan", "id": 0, "parent": None, "start": 0.0, "end": 1.0},
        {"name": "SuperSim.cut", "id": 1, "parent": 0, "start": 0.1, "end": 0.4},
        {"name": "FragmentEvaluator.evaluate_all", "id": 2, "parent": None, "start": 1.0, "end": 3.0},
    ]
    metrics = traced_call_metrics({}, spans)
    assert metrics["cut.s"] == pytest.approx(0.3)
    assert metrics["route.s"] == pytest.approx(0.7)
    assert metrics["stage_sum_s"] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "workload, circuit",
    [
        (local.HweaMarginals(), HWEA(8, 2).near_clifford_instance(num_t=1, rng=3)),
        (local.Qaoa22Exact(), near_clifford_qaoa(6, rounds=1, num_t=1, rng=5)),
        (local.RepCodeSampled(), near_clifford_phase_code(3, num_t=1, rng=2)),
    ],
    ids=lambda w: getattr(w, "name", ""),
)
def test_traced_recomposition_is_bit_identical(workload, circuit):
    inst = _instance(workload, circuit)
    tracer = Tracer()
    tracer.new_call()
    plain, _ = workload.call(inst)
    traced, info = workload.traced_with_kernels(inst, tracer)
    assert workload.same(plain, traced)
    names = {s["name"] for s in tracer.spans}
    assert {"SuperSim.cut", "FragmentEvaluator.evaluate_all", "build_fragment_tensor",
            "reconstruct_distribution"} <= names
    assert info["plan.cuts"] == inst.plan_shape["plan.cuts"]

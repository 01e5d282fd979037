"""Correctness checks against simulators that share no code with the cutter.

Each check takes the program's output and reference values computed by
an independent simulator (MPS, extended stabilizer, statevector) and
returns ``None`` when they agree or a one-line reason when they do not.
The checks use numpy only, never the program's own analysis helpers, so
the program cannot grade itself.
"""

from __future__ import annotations

import math

import numpy as np

#: exact modes agree with their oracle to ~1e-15; anything near this
#: tolerance is a real disagreement, not rounding
MARGINAL_ATOL = 1e-9
PROBABILITY_RTOL = 1e-9
PROBABILITY_ATOL = 1e-15
#: Hellinger fidelity floor for 5000-shot sampled reconstructions
HELLINGER_FLOOR = 0.98


def check_marginals(got, reference) -> str | None:
    """Per-qubit ``(n, 2)`` marginals, exact mode."""
    got = np.asarray(got, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if got.shape != reference.shape:
        return f"marginals shape {got.shape} != oracle {reference.shape}"
    error = float(np.max(np.abs(got - reference)))
    if not error <= MARGINAL_ATOL:
        return f"marginals differ from MPS by {error:.3g}"
    return None


def check_probabilities(outcomes, got, reference) -> str | None:
    """Exact-mode probabilities at chosen outcomes."""
    got = np.asarray(got, dtype=float)
    reference = np.asarray(reference, dtype=float)
    bound = PROBABILITY_ATOL + PROBABILITY_RTOL * np.abs(reference)
    bad = np.flatnonzero(~(np.abs(got - reference) <= bound))
    if len(bad):
        i = int(bad[0])
        return (
            f"{len(bad)} outcomes differ from the extended stabilizer, e.g. "
            f"outcome {int(outcomes[i])}: {got[i]!r} != {reference[i]!r}"
        )
    return None


def hellinger_fidelity(got, reference) -> float:
    """``(sum sqrt(p q))**2`` over aligned, non-negative probability arrays."""
    got = np.clip(np.asarray(got, dtype=float), 0.0, None)
    reference = np.clip(np.asarray(reference, dtype=float), 0.0, None)
    return float(np.sqrt(got * reference).sum() ** 2)


def check_sampled_support(got, reference) -> str | None:
    """Sampled distribution against exact probabilities on its support."""
    fidelity = hellinger_fidelity(got, reference)
    if not fidelity >= HELLINGER_FLOOR:
        return (
            f"Hellinger fidelity {fidelity:.4f} over the sampled support is "
            f"below {HELLINGER_FLOOR}"
        )
    return None


#: standard deviation of the sampled P(0) on the service workload's
#: 10-qubit theta circuit (2 cuts, 1000 shots), measured over 150
#: sampling seeds at each of 10 angles in (0.02, 0.48) turns: 0.028 to
#: 0.037 by angle, so the largest is taken.  The estimator is biased
#: low by about 0.02 and its low tail is heavier than a normal one: 6000
#: seeds at 0.15 turns gave std 0.035, 2 errors beyond 0.15 and none
#: beyond 0.16, and no error of 7500 reached 0.18 (5 sigma)
P0_SIGMA = 0.037
P0_SIGMA_CUTS = 2
P0_SIGMA_SHOTS = 1000
#: a single point may miss by this many sigmas before it counts as wrong;
#: 6 would leave the measured tail (5 sigma in 7500) too little room over
#: the ~30k points of twenty runs, whose errors are partly shared
POINT_SIGMAS = 7.0


def p0_sigma(num_cuts: int, shots: int) -> float:
    """``P0_SIGMA`` scaled to another cut count and number of shots.

    A ``k``-cut reconstruction sums ``4**k`` products of sampled
    estimates divided by ``2**k``, so its error grows like ``2**k``;
    each estimate's error shrinks like ``1/sqrt(shots)``.
    """
    return (
        P0_SIGMA
        * 2.0 ** (num_cuts - P0_SIGMA_CUTS)
        * math.sqrt(P0_SIGMA_SHOTS / shots)
    )


def p0_tolerance(num_cuts: int, shots: int) -> float:
    return POINT_SIGMAS * p0_sigma(num_cuts, shots)


def check_p0(got: float, exact: float, num_cuts: int, shots: int) -> str | None:
    """One sampled P(0) against the exact value, within ``p0_tolerance``.

    ``num_cuts`` comes from a local plan of the circuit, never from the
    result being checked, so a program that cuts more cannot widen its
    own tolerance.
    """
    tolerance = p0_tolerance(num_cuts, shots)
    if not abs(got - exact) <= tolerance:
        return (
            f"P(0) = {got:.4f} but the statevector gives {exact:.4f} "
            f"(tolerance {tolerance:.4f})"
        )
    return None


def same_distribution(a, b) -> bool:
    """Bit-identical outcome keys and probabilities."""
    return bool(
        np.array_equal(a.keys_array, b.keys_array)
        and np.array_equal(a.values_array, b.values_array)
    )


def outcome_bit_rows(keys, n_bits: int) -> np.ndarray:
    """``(m, n_bits)`` bool rows of integer outcomes, first qubit = MSB."""
    keys = np.asarray(keys, dtype=np.uint64)
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.uint64)
    return ((keys[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)

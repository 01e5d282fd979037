"""The one fault policy: what happens to a variant job that fails (§X).

Fragment variants are independent, so a job that raises, misses its soft
deadline or dies with its worker can be retried, requeued or moved
elsewhere without touching any other job.  *What* to do is decided here
and only here, by :func:`decide` — a pure function of the failure policy,
the event, the job's failure and crash counts and the retry
:class:`Limits`.  Three drivers call it through :func:`charge` and keep
only their own mechanics:

* the local ``_JobScheduler`` (:mod:`repro.core.evaluator`) keeps its
  futures, pending heap and pool rebuilds; its fallback walks the
  router's cost ranking to the next capable backend;
* the service ``Coordinator`` keeps its event loop, requeues and
  heartbeats; its fallback is coordinator-local execution;
* the service worker keeps its session loop and frames.

:func:`execute_with_retries` is the one in-thread "run a job, retry what
it raised" loop and :func:`backoff` the one capped exponential backoff.

This module let us delete three copies of the policy that had drifted
apart: the scheduler's ``_handle_failure`` / ``_handle_timeout`` /
``_handle_crash`` / ``_backoff``; the coordinator's ``_after_crash``, the
policy branches of ``_deadline_loop`` / ``_on_job_error`` /
``_on_worker_lost`` and the retry loop of ``_execute_local``; and the
worker's ``_execute_with_retries``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import (
    BackendExecutionError,
    FaultEvent,
    JobTimeoutError,
    ReproError,
    WorkerCrashError,
)

#: upper bound, in seconds, on one retry's backoff sleep
RETRY_BACKOFF_CAP = 2.0
#: a derived soft deadline is the calibrated cost prediction times this,
TIMEOUT_SAFETY = 25.0
#: floored here so cheap jobs are not cancelled on scheduler jitter
MIN_JOB_TIMEOUT = 5.0

POLICIES = ("raise", "retry", "degrade")
EVENTS = ("failure", "timeout", "crash")


@dataclass(frozen=True)
class Limits:
    """One job's budget: raised exceptions plus soft-timeouts per backend,
    worker crashes in flight before quarantine, and the backoff base."""

    max_retries: int = 3
    max_job_crashes: int = 3
    retry_backoff: float = 0.05


def policy_of(execution) -> tuple[str, Limits]:
    """``(failure_policy, limits)`` of an ``ExecutionConfig`` — the one
    place the engine, the coordinator and its workers read them from."""
    return execution.failure_policy, Limits(
        execution.max_retries, execution.max_job_crashes, execution.retry_backoff
    )


@dataclass(frozen=True)
class Decision:
    """What a driver does next with a failed job.

    ``action`` is ``"retry"`` (resubmit after ``delay`` seconds),
    ``"fallback"`` (move the job to the driver's fallback, raising
    ``error`` when there is none) or ``"raise"`` (raise ``error``).
    ``events`` are the ``(kind, detail)`` fault events to record;
    ``failures`` / ``crashes`` are the job's counts after this event;
    ``reason`` says what happened, for a fallback record.
    """

    action: str
    failures: int
    crashes: int
    delay: float = 0.0
    error: ReproError | None = None
    events: tuple[tuple[str, str], ...] = ()
    reason: str = ""


def backoff(n: int, base: float) -> float:
    """Seconds before the ``n``-th retry: ``base`` doubling per retry,
    capped at :data:`RETRY_BACKOFF_CAP`."""
    if base <= 0:
        return 0.0
    return min(RETRY_BACKOFF_CAP, base * 2.0 ** (n - 1))


def soft_deadline(predicted_seconds: float) -> float:
    """The soft deadline derived from a calibrated cost prediction."""
    return max(MIN_JOB_TIMEOUT, predicted_seconds * TIMEOUT_SAFETY)


def decide(
    policy: str,
    event: str,
    failures: int,
    crashes: int,
    limits: Limits,
    *,
    fragment_index: int | None = None,
    backend: str | None = None,
    cause: BaseException | str | None = None,
    timeout: float | None = None,
) -> Decision:
    """The policy decision after one fault of one job.

    ``event`` is ``"failure"`` (the backend raised ``cause``),
    ``"timeout"`` (the job ran past its soft deadline ``timeout``) or
    ``"crash"`` (a worker died with the job in flight; ``cause`` says
    how).  ``failures`` and ``crashes`` are the job's counts *before*
    this event.

    * ``"raise"`` charges and records nothing: the typed error at once.
    * ``"retry"`` charges the event and retries with backoff while the
      budget lasts, recording ``retry`` / ``timeout`` per retried
      failure / timeout and ``crash`` per crash; then it raises.  A job
      past ``max_job_crashes`` is also recorded as ``quarantine``.
    * ``"degrade"`` is ``"retry"`` with a fallback instead of the raise.

    The error carries ``fragment_index``, ``backend`` and ``attempts``
    (charged failures plus crashes); an exception ``cause`` is its
    ``__cause__``.
    """
    if policy not in POLICIES or event not in EVENTS:
        raise ValueError(f"unknown failure policy or event: {policy!r}, {event!r}")
    if isinstance(cause, BaseException):
        reason = f"{type(cause).__name__}: {cause}"
    elif event == "timeout":
        reason = "soft deadline exceeded"
        if timeout is not None:
            reason = f"soft deadline {timeout:.3g}s exceeded"
    else:
        reason = str(cause or event)
    events = []
    charged = policy != "raise"
    if charged:
        if event == "crash":
            crashes += 1
            used, budget = crashes, limits.max_job_crashes
            events.append(("crash", reason))
        else:
            failures += 1
            used, budget = failures, limits.max_retries
        if used <= budget:
            if event != "crash":
                events.append(("retry" if event == "failure" else "timeout", reason))
            return Decision(
                "retry",
                failures,
                crashes,
                delay=backoff(used, limits.retry_backoff),
                events=tuple(events),
                reason=reason,
            )
        if event == "crash":
            events.append(("quarantine", f"{crashes} crashes with this job in flight"))
    # no retry left: at once under "raise", else the budget ran out
    context = dict(
        fragment_index=fragment_index, backend=backend, attempts=failures + crashes
    )
    if event == "failure":
        what = "retries exhausted" if charged else (
            "backend raised while simulating a variant"
        )
        error: ReproError = BackendExecutionError(f"{what}: {cause!r}", **context)
    elif event == "timeout":
        what = "soft deadline exceeded and retries exhausted" if charged else (
            "variant exceeded its soft deadline"
        )
        error = JobTimeoutError(what, timeout=timeout, **context)
    else:
        what = f"job quarantined after {crashes} worker crashes" if charged else (
            "worker crashed with this job in flight"
        )
        error = WorkerCrashError(f"{what} ({reason})", **context)
    if isinstance(cause, BaseException):
        error.__cause__ = cause
    return Decision(
        "fallback" if policy == "degrade" else "raise",
        failures,
        crashes,
        error=error,
        events=tuple(events),
        reason=reason,
    )


def charge(
    policy: str, event: str, job, limits: Limits, record, cause=None, where=""
) -> Decision:
    """:func:`decide` one fault of ``job`` and charge it: update the
    job's ``failures`` / ``crashes`` and pass each event to ``record`` as
    a :class:`~repro.errors.FaultEvent` (``where`` is appended to its
    detail).  The caller carries out the returned decision."""
    decision = decide(
        policy,
        event,
        job.failures,
        job.crashes,
        limits,
        fragment_index=job.fragment_index,
        backend=job.backend.name,
        cause=cause,
        timeout=job.timeout,
    )
    suffix = f" ({where})" if where else ""
    for kind, detail in decision.events:
        record(
            FaultEvent(
                kind, job.fragment_index, job.backend.name, job.attempt, detail + suffix
            )
        )
    job.failures, job.crashes = decision.failures, decision.crashes
    return decision


def event_of(exc: BaseException) -> str:
    """The event a raised exception is: ``"crash"`` for the chaos
    harness's stand-in for a worker crash, else ``"failure"``."""
    from repro.testing.chaos import SimulatedWorkerCrash

    return "crash" if isinstance(exc, SimulatedWorkerCrash) else "failure"


def execute_with_retries(job, policy: str, limits: Limits, record, where=""):
    """Run ``job`` in this thread until it succeeds or the policy stops.

    Returns ``(value, None)``, or ``(None, decision)`` with the terminal
    ``"fallback"`` / ``"raise"`` decision for the caller to carry out.
    A chaos-simulated crash counts as a crash; a real one ends the
    process and never returns here.
    """
    from repro.core.evaluator import _execute_job

    while True:
        try:
            return _execute_job(job), None
        except Exception as exc:
            decision = charge(policy, event_of(exc), job, limits, record, exc, where)
            if decision.action != "retry":
                return None, decision
            time.sleep(decision.delay)

"""The campaign executor: shard jobs across worker processes.

:func:`run_campaign` takes any object satisfying the
:class:`repro.core.experiment.Experiment` protocol, expands its
:meth:`job_specs`, executes each spec — in-process for ``jobs=1``, on a
``ProcessPoolExecutor`` otherwise — and reduces the ordered results.

Failure semantics: a job that raises or exceeds its timeout becomes a
failed :class:`JobResult` (error captured, campaign continues); the
merged campaign manifest records it and the overall status degrades to
``partial`` (or ``failure`` when nothing succeeded).  Compatibility
wrappers that predate the runner (``run_matrix`` …) call
:meth:`CampaignResult.raise_on_failure` to restore raise-on-error
behaviour.

Beyond per-job failures, campaigns survive *infrastructure* failures
(see :mod:`repro.resilience`): pooled execution runs under a
supervisor that respawns broken pools and requeues in-flight jobs,
``checkpoint=`` journals each finished job to an append-only JSONL
file, and ``resume=`` skips jobs already journaled there — producing a
campaign manifest fingerprint-identical to an uninterrupted run.  A
``KeyboardInterrupt`` while a checkpoint is active flushes the journal
and surfaces as :class:`CampaignInterrupted` with a resume hint.

Every job runs in its own metrics scope (the worker's registry is
reset around it) and returns a small ``phantom.run-manifest/1``
document; the reducer merges those into one campaign manifest.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..errors import ReproError
from ..telemetry import metrics as _metrics
from ..telemetry.spans import SPANS
from .reduce import job_manifest, merge_job_manifests
from .spec import JobSpec


class CampaignError(ReproError):
    """Raised by strict wrappers when a campaign had failed jobs."""


class CampaignInterrupted(ReproError):
    """A campaign was interrupted with its checkpoint journal intact.

    Raised in place of ``KeyboardInterrupt`` when ``checkpoint=`` is
    active: the journal has been flushed, so re-running with
    ``resume=checkpoint`` picks up where the interrupt landed.
    """

    def __init__(self, message: str, *, done: int = 0, total: int = 0,
                 checkpoint=None) -> None:
        super().__init__(message)
        self.done = done
        self.total = total
        self.checkpoint = checkpoint


class JobTimeout(ReproError):
    """A job exceeded its per-job timeout."""


@dataclass(frozen=True)
class CheckpointOps:
    """The checkpoint primitives the campaign loop needs, as one typed
    object.

    ``run_campaign`` imports :mod:`repro.resilience.checkpoint` lazily
    (the resilience package imports the runner, so a module-level
    import would cycle) and hands the pieces to :func:`_run_campaign`.
    They used to travel as a positional 3-tuple unpacked by order — a
    silent-swap hazard; named fields make any mismatch an
    ``AttributeError`` at the call site instead.
    """

    #: :class:`repro.resilience.CheckpointWriter` (class, not instance).
    writer_cls: type
    #: ``load_checkpoint(path) -> {fingerprint: CheckpointRecord}``.
    load: Callable[..., Mapping]
    #: ``spec_fingerprint(spec) -> str``.
    fingerprint: Callable[[JobSpec], str]

    @classmethod
    def default(cls) -> "CheckpointOps":
        from ..resilience.checkpoint import (CheckpointWriter,
                                             load_checkpoint,
                                             spec_fingerprint)

        return cls(writer_cls=CheckpointWriter, load=load_checkpoint,
                   fingerprint=spec_fingerprint)


def resolve_jobs(jobs: int | None) -> int:
    """``--jobs`` semantics: ``None``/``0`` means one worker per
    *available* CPU — the scheduling affinity mask when the platform
    exposes it (a cgroup-limited CI container may see 2 of 64 cores;
    oversubscribing the other 62 just thrashes), falling back to the
    raw core count elsewhere."""
    if not jobs:
        if hasattr(os, "sched_getaffinity"):
            try:
                return max(1, len(os.sched_getaffinity(0)))
            except OSError:  # pragma: no cover — exotic platforms
                pass
        return os.cpu_count() or 1
    return max(1, int(jobs))


class JobContext:
    """Per-job runtime handed to ``Experiment.run_one``.

    Booting machines through the context lets the executor account
    simulated cycles and PMC totals for the job manifest without the
    experiment threading them back by hand.
    """

    def __init__(self) -> None:
        #: Everything accounted: booted machines and tracked objects.
        self.machines: list = []
        #: The machines this context booted, and so owns and closes.
        self._booted: list = []

    def boot(self, spec):
        """Boot *spec* (a :class:`repro.kernel.MachineSpec`) and track
        the machine for cycle/PMC accounting."""
        from ..kernel import Machine

        with SPANS.span("boot", arch=getattr(spec, "name", "")):
            machine = Machine.from_spec(spec)
        self._booted.append(machine)
        return self.track(machine)

    def span(self, name: str, **attrs):
        """Bracket an experiment phase (``warm``, ``measure:…``) with a
        trace span; a no-op context while tracing is disabled."""
        return SPANS.span(name, **attrs)

    def track(self, machine):
        self.machines.append(machine)
        return machine

    @property
    def cycles(self) -> int:
        return sum(m.cycles for m in self.machines)

    @property
    def simulated_seconds(self) -> float:
        return sum(m.seconds() for m in self.machines)

    def pmc_snapshot(self) -> dict:
        merged: dict[str, int] = {}
        for machine in self.machines:
            for name, value in machine.cpu.pmc.snapshot().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def close(self) -> None:
        """Release every machine :meth:`boot` made (:meth:`Machine.close`)
        once the job's cycles and PMC totals have been read, so its
        memory goes back without waiting for the cyclic GC.  Objects
        handed to :meth:`track` stay their owner's to release."""
        for machine in self._booted:
            machine.close()


@dataclass
class JobResult:
    """Outcome of one job: a value, or a captured failure."""

    spec: JobSpec
    value: Any = None
    error: str | None = None
    error_kind: str | None = None   # "exception" | "timeout" |
    #                                 "worker-lost" | "hung"
    attempts: int = 1
    #: Failed attempts that preceded the final outcome, oldest first:
    #: ``{"attempt": n, "error_kind": ..., "error": ...}`` — so a
    #: retried success no longer erases its earlier failures from the
    #: campaign record.
    attempt_history: list = field(default_factory=list)
    wall_time_s: float = 0.0
    manifest: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignResult:
    """Everything one campaign produced, in job-spec order."""

    experiment: str
    jobs: int
    results: list[JobResult]
    value: Any
    manifest: dict

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def raise_on_failure(self) -> "CampaignResult":
        if self.failures:
            summary = "; ".join(f"{r.spec.label}: {r.error}"
                                for r in self.failures[:3])
            raise CampaignError(
                f"{len(self.failures)}/{len(self.results)} jobs failed "
                f"in campaign {self.experiment!r}: {summary}")
        return self


#: One warning per process when a requested timeout cannot be armed.
_UNENFORCED_WARNED = False


class _JobAlarm:
    """Per-job wall-clock timeout via ``SIGALRM`` (worker processes run
    jobs on their main thread, where the signal can be delivered; off
    the main thread — or without ``SIGALRM`` at all — the timeout
    degrades to unenforced, which is *counted*
    (``runner.timeout_unenforced``) and warned about once rather than
    silently running unbounded).

    Exiting restores the full prior alarm state: the previous handler
    *and* whatever was left of a previously armed ``ITIMER_REAL``
    (minus the time spent inside this context), so nesting — or running
    under host code that uses the same timer — never silently cancels
    an outer deadline.  A zero/None timeout arms nothing and therefore
    disturbs nothing.
    """

    #: Re-arm delay used when an outer alarm expired while this one
    #: held the timer: fire it as soon as possible (0 would disarm).
    _IMMEDIATE = 1e-6

    def __init__(self, timeout_s: float | None) -> None:
        wanted = timeout_s is not None and timeout_s > 0
        can_arm = (hasattr(signal, "SIGALRM")
                   and threading.current_thread()
                   is threading.main_thread())
        self.armed = wanted and can_arm
        self.unenforced = wanted and not can_arm
        self.timeout_s = timeout_s

    def __enter__(self) -> "_JobAlarm":
        if self.unenforced:
            global _UNENFORCED_WARNED
            _metrics.REGISTRY.counter("runner.timeout_unenforced").inc()
            if not _UNENFORCED_WARNED:
                _UNENFORCED_WARNED = True
                warnings.warn(
                    f"job timeout of {self.timeout_s}s cannot be "
                    "enforced here (SIGALRM unavailable or not on the "
                    "main thread); the job runs unbounded — rely on "
                    "the campaign watchdog instead",
                    RuntimeWarning, stacklevel=3)
        if self.armed:
            def _on_alarm(signum, frame):
                raise JobTimeout(f"job exceeded {self.timeout_s}s")

            self._previous = signal.signal(signal.SIGALRM, _on_alarm)
            self._entered_at = time.monotonic()
            self._prev_delay, self._prev_interval = signal.setitimer(
                signal.ITIMER_REAL, self.timeout_s)
        return self

    def __exit__(self, *exc) -> bool:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            if self._prev_delay > 0:
                elapsed = time.monotonic() - self._entered_at
                remaining = self._prev_delay - elapsed
                signal.setitimer(signal.ITIMER_REAL,
                                 max(remaining, self._IMMEDIATE),
                                 self._prev_interval)
        return False


def _attempt_history(errors: list[tuple[str, str]]) -> list[dict]:
    """Error tuples → manifest-ready per-attempt records."""
    return [{"attempt": number, "error_kind": kind, "error": message}
            for number, (kind, message) in enumerate(errors, start=1)]


def execute_job(experiment, spec: JobSpec, *, timeout_s: float | None = None,
                retries: int = 0) -> JobResult:
    """Run one job to a :class:`JobResult` — never raises.

    Must stay a module-level function: it is the callable the process
    pool pickles.
    """
    registry = _metrics.REGISTRY
    wall_start = time.perf_counter()
    errors: list[tuple[str, str]] = []
    ctx = JobContext()
    trace_ctx = spec.trace
    if trace_ctx is not None:
        SPANS.adopt(trace_ctx)
    job_parent = trace_ctx.parent_span_id if trace_ctx is not None else ""
    for attempt in range(retries + 1):
        ctx.close()      # a failed attempt's machines
        ctx = JobContext()
        registry.reset()
        registry.enable()
        try:
            with SPANS.span(spec.label, parent_id=job_parent, seq=attempt,
                            attempt=attempt):
                with _JobAlarm(timeout_s):
                    value = experiment.run_one(spec, ctx)
        except JobTimeout as exc:
            errors.append(("timeout", str(exc)))
        except Exception as exc:   # noqa: BLE001 — capture, don't abort
            errors.append(("exception", f"{type(exc).__name__}: {exc}"))
        else:
            wall = time.perf_counter() - wall_start
            history = _attempt_history(errors)
            extra = {"attempt_history": history} if history else {}
            manifest = job_manifest(spec, ctx, registry.snapshot(),
                                    status="success", wall_time_s=wall,
                                    attempts=attempt + 1, **extra)
            ctx.close()
            registry.disable()
            return JobResult(spec=spec, value=value, attempts=attempt + 1,
                             attempt_history=history, wall_time_s=wall,
                             manifest=manifest)
        registry.disable()
    kind, message = errors[-1]
    wall = time.perf_counter() - wall_start
    history = _attempt_history(errors[:-1])
    extra = {"attempt_history": history} if history else {}
    manifest = job_manifest(spec, ctx, registry.snapshot(),
                            status="failure", wall_time_s=wall,
                            error=message, error_kind=kind,
                            attempts=len(errors), **extra)
    ctx.close()
    return JobResult(spec=spec, error=message, error_kind=kind,
                     attempts=len(errors), attempt_history=history,
                     wall_time_s=wall, manifest=manifest)


def run_campaign(experiment, *, jobs: int | None = None,
                 timeout_s: float | None = None, retries: int = 0,
                 config: dict | None = None, checkpoint=None,
                 checkpoint_every: int = 1, resume=None,
                 supervision=None, on_job_done=None,
                 progress=None) -> CampaignResult:
    """Execute every job of *experiment* and reduce the results.

    ``jobs=None``/``0`` uses one worker per available CPU; ``jobs=1``
    (or a single-job campaign) runs in-process with no pool overhead.
    The result order always follows ``experiment.job_specs()`` order,
    so reduction is deterministic at any worker count.

    Resilience (see :mod:`repro.resilience` and ``docs/resilience.md``):

    * ``checkpoint`` — a path (or prepared ``CheckpointWriter``) to
      journal each finished job to, flushed every ``checkpoint_every``
      records; a ``KeyboardInterrupt`` then surfaces as
      :class:`CampaignInterrupted` with the journal flushed.
    * ``resume`` — a checkpoint path whose journaled jobs are skipped;
      their recorded results merge into the manifest exactly as if
      they had just run.  An in-memory mapping of
      ``{spec_fingerprint: CheckpointRecord}`` is accepted in place of
      a path — the campaign service's content-addressed result store
      answers cache hits through exactly this seam.
    * ``supervision`` — a :class:`repro.resilience.SupervisionPolicy`
      for the pooled path (pool respawn, requeue, watchdog, backoff);
      the default policy applies when omitted.
    * ``on_job_done`` — callback invoked with each recorded
      :class:`JobResult` (the chaos harness's interruption point).

    Observability (see ``docs/observability.md``): when the process
    span recorder is active, the campaign runs under a
    ``campaign:<name>`` span whose :class:`TraceContext` is stamped
    into every dispatched spec (workers parent their job spans on it);
    ``progress`` — an optional
    :class:`repro.telemetry.ProgressReporter` fed from the same
    completion stream as ``on_job_done``.  Both are strictly
    observational: manifests and results are byte-identical with them
    on or off.
    """
    specs: Sequence[JobSpec] = list(experiment.job_specs())
    n_workers = resolve_jobs(jobs)
    name = getattr(experiment, "name", type(experiment).__name__)
    wall_start = time.perf_counter()

    with SPANS.span(f"campaign:{name}", jobs=n_workers,
                    job_count=len(specs)):
        trace_ctx = SPANS.context()
        if trace_ctx is not None:
            specs = [replace(spec, trace=trace_ctx) for spec in specs]
        return _run_campaign(
            experiment, specs, n_workers=n_workers, name=name,
            wall_start=wall_start, timeout_s=timeout_s, retries=retries,
            config=config, checkpoint=checkpoint,
            checkpoint_every=checkpoint_every, resume=resume,
            supervision=supervision, on_job_done=on_job_done,
            progress=progress, checkpoint_ops=CheckpointOps.default())


def _run_campaign(experiment, specs, *, n_workers, name, wall_start,
                  timeout_s, retries, config, checkpoint, checkpoint_every,
                  resume, supervision, on_job_done, progress,
                  checkpoint_ops: CheckpointOps) -> CampaignResult:
    slots: list[JobResult | None] = [None] * len(specs)
    resume_info = None
    resumed_from_records = isinstance(resume, Mapping)
    if resume is not None:
        journal = resume if resumed_from_records \
            else checkpoint_ops.load(resume)
        hits = 0
        for index, spec in enumerate(specs):
            record = journal.get(checkpoint_ops.fingerprint(spec))
            if record is not None:
                slots[index] = record.to_job_result(spec)
                hits += 1
        _metrics.REGISTRY.counter("resilience.jobs_resumed").inc(hits)
        source = "<records>" if resumed_from_records else str(resume)
        resume_info = {"from": source, "jobs_skipped": hits,
                       "jobs_rerun": len(specs) - hits}

    owns_writer = False
    if isinstance(checkpoint, checkpoint_ops.writer_cls):
        writer = checkpoint
    elif checkpoint is not None:
        writer = checkpoint_ops.writer_cls(checkpoint, every=checkpoint_every)
        owns_writer = True
    else:
        writer = None
    if writer is not None and resume is not None \
            and (resumed_from_records or writer.path != Path(resume)):
        # Journaling to a different file than we resumed from: copy the
        # inherited results over so the new journal is self-contained.
        for index, inherited in enumerate(slots):
            if inherited is not None:
                writer.append(specs[index], inherited)

    todo = [index for index in range(len(specs)) if slots[index] is None]
    if progress is not None:
        progress.begin(campaign=name, total=len(specs),
                       done=len(specs) - len(todo))

    def record(index: int, result: JobResult) -> None:
        slots[index] = result
        if writer is not None:
            writer.append(specs[index], result)
        if progress is not None:
            progress.on_job_done(result)
        if on_job_done is not None:
            on_job_done(result)

    supervision_stats = None
    try:
        if n_workers <= 1 or len(todo) <= 1:
            for index in todo:
                record(index, execute_job(experiment, specs[index],
                                          timeout_s=timeout_s,
                                          retries=retries))
        else:
            from ..resilience.supervisor import SupervisionPolicy, supervise

            supervision_stats = supervise(
                experiment, specs, todo, record, n_workers=n_workers,
                timeout_s=timeout_s, retries=retries,
                policy=supervision or SupervisionPolicy())
    except KeyboardInterrupt:
        if progress is not None:
            progress.end("interrupted")
        if writer is None:
            raise
        writer.flush()
        done = sum(result is not None for result in slots)
        raise CampaignInterrupted(
            f"campaign {name!r} interrupted with {done}/{len(specs)} "
            f"jobs done; resume from {writer.path}",
            done=done, total=len(specs),
            checkpoint=str(writer.path)) from None
    finally:
        if writer is not None:
            if owns_writer:
                writer.close()
            else:
                writer.flush()

    results: list[JobResult] = slots   # every slot filled now
    with SPANS.span("reduce", job_count=len(results)):
        value = experiment.reduce(results)
        campaign_config = {"experiment": name, "jobs": n_workers,
                           "job_count": len(specs)}
        campaign_config.update(getattr(experiment, "campaign_config",
                                       dict)() or {})
        campaign_config.update(config or {})
        manifest = merge_job_manifests(
            name, campaign_config, results,
            wall_time_s=time.perf_counter() - wall_start)
    if resume_info is not None:
        manifest["outcome"]["resume"] = resume_info
    if supervision_stats and any(supervision_stats.values()):
        manifest["outcome"]["supervision"] = supervision_stats
    if progress is not None:
        progress.end(manifest["outcome"]["status"])
    return CampaignResult(experiment=name, jobs=n_workers,
                          results=results, value=value, manifest=manifest)

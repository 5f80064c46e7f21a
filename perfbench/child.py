"""One fresh-interpreter execution of a workload; prints one JSON line.

Usage (``run.py`` spawns it; by hand from the repository root)::

    python3 perfbench/child.py --workload kaslr --seed 0 --mode run \\
        --spawned "$(python3 -c 'import time; print(time.monotonic())')"

Modes: ``run`` (untraced, timed), ``trace`` (entry points wrapped, see
:mod:`tracer`), ``profile`` (under cProfile, for the trace coverage
check) and ``setup`` (stop at the first job).

``--spawned`` is the parent's ``time.monotonic()`` just before it
started this interpreter; set-up time runs from there, through
``import repro`` and input generation, to the start of the first job.

In ``run`` and ``setup`` modes a :class:`hostspeed.Probe` samples the
host's speed from the start; ``host_speed`` holds its factor over the
set-up and over the measured run.  The times printed are as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(campaigns) -> str:
    """One digest of every campaign's ``manifest_fingerprint``."""
    from repro.runner import manifest_fingerprint

    docs = [manifest_fingerprint(c.manifest) for c in campaigns]
    blob = json.dumps(docs, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("run", "trace", "profile", "setup"))
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    # One core for the whole run: the highest-numbered one allowed, as
    # core 0 tends to take the host's interrupts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = None
    if args.mode in ("run", "setup"):
        from hostspeed import Probe

        probe = Probe()
        probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 — set-up includes the package import
    import tracer as tracing
    from workloads import EXPERIMENTS, WORKLOADS

    traced = None
    if args.mode == "trace":
        traced = tracing.Tracer()
        traced.install(EXPERIMENTS)
    run = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned
    first_job = probe.mark() if probe is not None else 0
    if args.mode == "setup":
        probe.stop()
        print(json.dumps({"setup_s": setup_s,
                          "host_speed": {"setup": probe.factor()}}))
        return 0

    profiler = None
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    outcome = run()
    wall_s = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    if probe is not None:
        probe.stop()

    campaigns = outcome.campaigns
    jobs = sum(len(c.results) for c in campaigns)
    failed_jobs = sum(len(c.failures) for c in campaigns)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cycles": sum(c.manifest["totals"]["cycles"] for c in campaigns),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": jobs + outcome.answers,
        "failed": failed_jobs + len(outcome.wrong),
        "wrong": outcome.wrong[:20],
        "fingerprint": fingerprint(campaigns),
        "simulated": tracing.simulated_metrics(campaigns),
    }
    if probe is not None:
        result["host_speed"] = {"setup": probe.factor(0, first_job),
                                "run": probe.factor(first_job)}
    if traced is not None:
        result["layers"] = {**traced.report(),
                            **tracing.job_metrics(campaigns)}
    if profiler is not None:
        import pstats

        table = pstats.Stats(profiler).stats
        result["coverage"] = {
            name: table[key][1] if key in table else 0
            for name, key in tracing.coverage_targets().items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paper-experiment benchmark: time the paper's campaigns end to end.

Run from the repository root::

    python3 perfbench/run.py --workload kaslr --seed 0 --seconds 25 --trace 0

Every repeat runs the workload in a fresh interpreter (``child.py``),
so no process-wide cache carries over between repeats, just as for a
user running ``repro kaslr``.  Untraced runs repeat the workload for
about ``--seconds`` (at least twice, so the repeats' manifest
fingerprints can be compared) and report medians of the end-to-end
metrics.  ``wall_s`` and ``setup_s`` are scaled to a reference host
speed that :mod:`hostspeed` samples inside each interpreter while it
works, since this host's own speed drifts by up to 40% within a
minute.  Traced
runs execute the workload three times: untraced, traced (per-layer
metrics) and under cProfile (trace coverage check).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
#: Workloads, metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Repeats per untraced run, whatever ``--seconds`` says.
MIN_REPEATS = 2
#: Extra set-up-only interpreters per untraced run, for ``setup_s``.
SETUP_PROBES = 2
#: The whole run, every interpreter included, ends within this.
RUN_TIMEOUT_S = 170
#: ``time.monotonic()`` by which every interpreter must have ended.
DEADLINE = time.monotonic() + RUN_TIMEOUT_S


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(mode: str, workload: str, seed: int) -> dict:
    """Run one fresh interpreter; its last stdout line is its result."""
    command = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(seed), "--mode", mode,
               "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(DEADLINE - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} {workload} ran past the "
                         f"{RUN_TIMEOUT_S}s limit of a run") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tally(children: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    wrong = [w for c in children for w in c["wrong"]]
    return attempted, failed, wrong


def untraced(workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload for *seconds*; medians of the end-to-end
    metrics."""
    began = time.monotonic()
    repeats: list[dict] = []
    took: list[float] = []
    # Start another repeat while it would end, on the median so far,
    # less than half a repeat past --seconds.
    while len(repeats) < MIN_REPEATS or time.monotonic() - began \
            + statistics.median(took) / 2 < seconds:
        start = time.monotonic()
        repeats.append(spawn("run", workload, seed))
        took.append(time.monotonic() - start)
    probes = [spawn("setup", workload, seed) for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] * r["host_speed"]["setup"]
              for r in repeats + probes]
    walls = [r["wall_s"] * r["host_speed"]["run"] for r in repeats]
    attempted, failed, wrong = tally(repeats)
    prints = {r["fingerprint"] for r in repeats}
    if len(prints) > 1:
        # Repeats of one seed must do identical simulated work.
        failed += 1
        wrong.append(f"fingerprint differs across repeats: {sorted(prints)}")
    metrics = {
        "wall_s": statistics.median(walls),
        "sim_cycles_per_s": statistics.median(r["cycles"] / wall
                                              for r, wall in zip(repeats,
                                                                 walls)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
    }
    for name, value in metrics.items():
        print(f"{workload:14s} {name:18s} {value:14.6g} "
              f"{END_TO_END_UNITS[name]}")
    measured = " ".join(f"{r['wall_s']:.3f}" for r in repeats)
    speeds = " ".join(f"{r['host_speed']['run']:.3f}" for r in repeats)
    print(f"{workload:14s} repeats {len(repeats)} (measured {measured} s; "
          f"host speed {speeds}), set-ups {len(setups)}, "
          f"fingerprint {repeats[0]['fingerprint'][:16]}")
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "metrics": {name: {"value": value,
                               "unit": END_TO_END_UNITS[name]}
                        for name, value in metrics.items()}}


def traced(workload: str, seed: int) -> dict:
    """One untraced, one traced and one profiled interpreter."""
    base = spawn("run", workload, seed)
    trace = spawn("trace", workload, seed)
    profile = spawn("profile", workload, seed)
    attempted, failed, wrong = tally([base, trace, profile])
    if trace["fingerprint"] != base["fingerprint"]:
        failed += 1
        wrong.append("tracing changed the manifest fingerprint")
    if profile["fingerprint"] != base["fingerprint"]:
        failed += 1
        wrong.append("profiling changed the manifest fingerprint")
    layers = trace["layers"]
    coverage = layers.pop("trace.coverage")
    for name, profiled in profile["coverage"].items():
        if coverage[name] != profiled:
            failed += 1
            wrong.append(f"trace coverage: {name} wrapped {coverage[name]} "
                         f"calls, cProfile saw {profiled}")
    values = {**layers, **trace["simulated"]}
    values["runner.error_rate"] = failed / attempted
    values["trace.overhead_ratio"] = trace["wall_s"] / base["wall_s"]
    values["trace.unattributed_s"] = trace["wall_s"] - values.pop(
        "trace.root_s")
    for name in PER_LAYER_UNITS:
        print(f"{workload:14s} {name:28s} {values[name]:14.6g} "
              f"{PER_LAYER_UNITS[name]}")
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in PER_LAYER_UNITS.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            summary = traced(args.workload, args.seed)
        else:
            summary = untraced(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in summary["wrong"]:
        print(f"WRONG: {line}")
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer host-time attribution for the traced run.

The traced run wraps each ``repro`` package's public entry points from
here, with no change to the program: every call opens a span, and when
the span closes its duration minus the time of the spans it opened
(its children) is added to the entry point's self time.  Spans are kept
in memory as per-entry-point aggregates and written out when the
workload ends (:meth:`Tracer.report`).

A name imported into another module (``decode`` in
``repro.pipeline.cpu``) is rebound in every loaded ``repro`` module
that holds it, so :func:`install` must run after the workload's modules
are imported and before any machine is built: several call sites bind
methods once, at construction.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable

#: span name -> entry points, as ``module`` + ``Class.method`` or
#: ``function``.  A span name is ``<layer>.<what>``.
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "isa.decode": (("repro.isa.decoder", "decode"),),
    "frontend.predict": (("repro.frontend.bpu", "BPU.predict_in_block"),
                         ("repro.frontend.bpu", "BPU.predict_scanned"),
                         ("repro.frontend.bpu", "BPU.predict_at")),
    "frontend.train": (("repro.frontend.bpu", "BPU.train_branch"),),
    "frontend.uopcache": (("repro.frontend.uopcache", "UopCache.access"),
                          ("repro.frontend.uopcache", "UopCache.lookup"),
                          ("repro.frontend.uopcache", "UopCache.fill"),
                          ("repro.frontend.uopcache",
                           "UopCache.invalidate_window")),
    "memory.fetch": (("repro.memory.system", "MemorySystem.fetch_code"),),
    "memory.data": (("repro.memory.system", "MemorySystem.read_data"),
                    ("repro.memory.system", "MemorySystem.write_data")),
    "memory.translate": (("repro.memory.paging", "AddressSpace.translate"),
                         ("repro.memory.paging",
                          "TranslationFront.translate")),
    "pipeline.run": (("repro.pipeline.cpu", "CPU.run"),),
    "pipeline.invalidate": (("repro.pipeline.cpu", "CPU.invalidate_code"),),
    "kernel.boot": (("repro.kernel.machine", "Machine.__init__"),),
    "kernel.syscall": (("repro.kernel.machine", "Machine.syscall"),),
    "kernel.write_user": (("repro.kernel.machine", "Machine.write_user"),),
    "sidechannel.prime": tuple(
        ("repro.sidechannel.primeprobe", f"{cls}.prime")
        for cls in ("PrimeProbeL1I", "PrimeProbeL1D", "PrimeProbeL2")),
    "sidechannel.probe": tuple(
        ("repro.sidechannel.primeprobe", f"{cls}.{method}")
        for cls in ("PrimeProbeL1I", "PrimeProbeL1D", "PrimeProbeL2")
        for method in ("probe", "probe_misses")),
    "runner.campaign": (("repro.runner.executor", "run_campaign"),),
    "fuzz.generate": (("repro.fuzz.relational", "generate_pair"),),
    "fuzz.check": (("repro.fuzz.relational", "check_pair"),),
    "fuzz.shrink": (("repro.fuzz.shrink", "shrink_pair"),),
}

#: Entry points whose wrapped call counts must equal a cProfile pass's.
COVERAGE = ("isa.decode", "kernel.boot", "pipeline.invalidate")

#: CPU attributes (plain counters, not metrics) summed over every core.
CPU_COUNTERS = ("sb_compiled", "sb_invalidated", "tb_compiled",
                "cycles_skipped")


def resolve(module: str, qualname: str):
    """The ``(owner, name, function)`` an entry point names."""
    owner = sys.modules[module]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's name for *original* at
    *replacement*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


class Tracer:
    """Span aggregates for every wrapped entry point."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds]
        self.spans: dict[str, list] = {}
        self._open: list[float] = []      # child time of each open span
        self.root_s = 0.0                 # time inside any root span
        self.decoded: set[bytes] = set()
        self.run_s = {"naive": 0.0, "fast": 0.0}
        self.cpus: list = []
        self.cpu_counters = dict.fromkeys(CPU_COUNTERS, 0)
        self._shrink_classes: set | None = None
        self.shrink_checks = 0
        self.shrink_useful = 0

    # -- wrapping -------------------------------------------------------------

    def span(self, name: str, fn: Callable, *,
             after: Callable | None = None,
             before: Callable | None = None) -> Callable:
        """*fn* inside a span *name*.  *before(args)* runs ahead of the
        span and *after(result, args)* once it returned; their own time
        is charged to the enclosing span's children, not to it."""
        totals = self.spans.setdefault(name, [0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.root_s += elapsed
            if after is not None:
                hook_start = clock()
                after(result, args)
                if open_spans:
                    open_spans[-1] += clock() - hook_start
            return result

        return traced

    def install(self, experiments) -> None:
        """Wrap every entry point, each experiment's ``run_one`` (the
        core layer) and ``CPU.__init__`` (to read the per-core compile
        counters)."""
        hooks = {"isa.decode": {"after": self._after_decode},
                 "fuzz.check": {"before": self._before_check,
                                "after": self._after_check},
                 "fuzz.shrink": {"before": self._before_shrink,
                                 "after": self._after_shrink}}
        for name, points in ENTRY_POINTS.items():
            for module, qualname in points:
                owner, attr, original = resolve(module, qualname)
                wrapped = self.span(name, original, **hooks.get(name, {}))
                setattr(owner, attr, wrapped)
                if not isinstance(owner, type):
                    rebind(original, wrapped)
        for cls in experiments:
            if "run_one" in vars(cls):
                cls.run_one = self.span("core.run_one", vars(cls)["run_one"],
                                        after=self._after_run_one)
        from repro.pipeline.cpu import CPU

        # CPU.run always leaves by an exception (hlt, budget), so the
        # engine split is taken in a ``finally`` around the span.
        run = CPU.run
        clock = time.perf_counter

        @functools.wraps(run)
        def by_engine(cpu, *args, **kwargs):
            start = clock()
            try:
                return run(cpu, *args, **kwargs)
            finally:
                engine = "fast" if cpu._fastpath else "naive"
                self.run_s[engine] += clock() - start

        CPU.run = by_engine
        init = CPU.__init__

        @functools.wraps(init)
        def register(cpu, *args, **kwargs):
            init(cpu, *args, **kwargs)
            self.cpus.append(cpu)

        CPU.__init__ = register

    # -- hooks ----------------------------------------------------------------

    def _after_decode(self, instr, args) -> None:
        buf = args[0]
        offset = args[1] if len(args) > 1 else 0
        self.decoded.add(bytes(buf[offset:offset + instr.length]))

    def _before_shrink(self, args) -> None:
        verdict = args[1]
        self._shrink_classes = (set(verdict.contract_classes)
                                or set(verdict.classes))

    def _after_shrink(self, _result, _args) -> None:
        self._shrink_classes = None
        self.harvest()

    def _before_check(self, _args) -> None:
        # The shrinker rejects a candidate whose check raises, so every
        # check counts here, and only a kept violation counts as useful.
        if self._shrink_classes is not None:
            self.shrink_checks += 1

    def _after_check(self, verdict, _args) -> None:
        if self._shrink_classes is not None:
            self.shrink_useful += bool(self._shrink_classes
                                       & set(verdict.classes))

    def _after_run_one(self, _result, _args) -> None:
        self.harvest()

    def harvest(self) -> None:
        """Fold the compile counters of every core built so far."""
        for cpu in self.cpus:
            for name in CPU_COUNTERS:
                self.cpu_counters[name] += getattr(cpu, name)
        self.cpus.clear()

    # -- report ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def report(self) -> dict:
        """The per-layer host metrics of this run (simulated ones come
        from the manifests, see :func:`simulated_metrics`)."""
        self.harvest()
        decodes = self.calls("isa.decode")
        run_total = self.run_s["naive"] + self.run_s["fast"]
        out = {}
        for name in ("isa.decode", "frontend.predict", "frontend.train",
                     "memory.fetch", "memory.data", "memory.translate",
                     "pipeline.invalidate", "kernel.boot", "kernel.syscall",
                     "kernel.write_user", "sidechannel.prime",
                     "sidechannel.probe", "fuzz.generate"):
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_s(name)
        for name in ("frontend.uopcache", "pipeline.run", "fuzz.check"):
            out[f"{name}.self_s"] = self.self_s(name)
        out["isa.decode.distinct_ratio"] = (len(self.decoded) / decodes
                                            if decodes else 0.0)
        out["core.self_s"] = self.self_s("core.run_one")
        out["runner.self_s"] = self.self_s("runner.campaign")
        out["fuzz.naive_share"] = (self.run_s["naive"] / run_total
                                   if run_total else 0.0)
        out["fuzz.shrink.checks"] = self.shrink_checks
        out["fuzz.shrink.useful_ratio"] = (
            self.shrink_useful / self.shrink_checks
            if self.shrink_checks else 0.0)
        for name, value in self.cpu_counters.items():
            out[f"pipeline.{name}"] = value
        out["trace.root_s"] = self.root_s
        out["trace.coverage"] = {name: self.calls(name) for name in COVERAGE}
        return out


def coverage_targets() -> dict[str, tuple]:
    """cProfile keys ``(file, line, function)`` of the coverage entry
    points, to be read after the profiled workload ran."""
    keys = {}
    for name in COVERAGE:
        [(module, qualname)] = ENTRY_POINTS[name]
        code = resolve(module, qualname)[2].__code__
        keys[name] = (code.co_filename, code.co_firstlineno, code.co_name)
    return keys


def job_metrics(campaigns) -> dict:
    """Runner metrics from the campaigns' job results."""
    jobs = [job for campaign in campaigns for job in campaign.results]
    walls = [job.wall_time_s for job in jobs]
    return {"runner.job_s.p50": statistics.median(walls) if walls else 0.0,
            "runner.job_s.max": max(walls, default=0.0),
            "runner.jobs_failed": sum(not job.ok for job in jobs),
            "runner.retries": sum(job.attempts - 1 for job in jobs)}


def simulated_metrics(campaigns) -> dict:
    """Simulated ratios and episode counts from the manifests' counters
    (a host-only change must leave them identical)."""
    counters: dict[str, int] = {}
    for campaign in campaigns:
        for key, value in campaign.manifest["metrics"]["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def hit_ratio(level: str) -> float:
        hits = counters.get(f"cache_hits{{level={level}}}", 0)
        misses = counters.get(f"cache_misses{{level={level}}}", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    return {"memory.l1i_hit_ratio": hit_ratio("L1I"),
            "memory.l1d_hit_ratio": hit_ratio("L1D"),
            "memory.l2_hit_ratio": hit_ratio("L2"),
            "pipeline.phantom_episodes":
                counters.get("speculation_episodes{flavour=phantom}", 0),
            "pipeline.spectre_episodes":
                counters.get("speculation_episodes{flavour=spectre}", 0)}

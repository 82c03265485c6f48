#!/usr/bin/env python3
"""Host-time benchmark of the Diffy reproduction's Python pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 16 --trace 0

Workloads (closed loop, one client, one process, one op at a time):

- ``grid``  — a design-space sweep of ``simulate_network`` queries over
  the axes the paper's figures sweep.  ``arch``, ``core/precision`` and
  ``compression/traffic`` do the work; traffic and cycle inputs repeat
  the way Figs 13-18 repeat them, which is what a content memo exploits.
- ``fresh`` — new-seed first results from an empty disk cache.  ``data``
  synthesis, ``models`` calibration, the ``nn`` trace and ``cache``
  stores do the work; no input repeats, so a memo's prediction here is
  "no change" and its bookkeeping overhead shows.
- ``serve`` — serving runs on the discrete-event simulator and the fleet
  shard engine; ``serve`` and ``serve/fleet`` work while ``arch`` idles.
- ``codec`` — encode+decode round trips of traced maps through every
  codec, on maps below and above the bitplane chunk budget; ``grid``
  prices traffic analytically and never runs a codec.

With ``--trace 0`` the run issues ops for ``--seconds`` and reports the
end-to-end metrics: ``setup_s`` (imports plus the median of three
set-ups), ``ops_per_s``, ``items_per_s``, ``op_p50_ms``, ``op_tail_ms``
and ``peak_rss_mb``.  The op times of the interpreter-bound workloads
(``grid``, ``serve``) are divided by the run's interpreter slowdown,
measured by a fixed probe between ops (see :class:`HostSpeed`); the raw
values are printed beside them.  With ``--trace 1`` the run instead
executes the workload's fixed reference op set with a span recorder
around each layer's entry points (``spans.py``) and reports per-layer
self times, the program's own counters and the exact simulated totals.
The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``; the lines above it print every
metric by name and unit, ``failed_frac``, the run manifest and the
measured input-reuse shares.  The exit code is 1 if any op's output
check failed.

Each run keeps its disk cache in a fresh directory under ``.perfbench/``
in the checkout and deletes it at exit; it refuses to run with
``REPRO_NO_CACHE`` set, which would change every workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` adds their median to the imports.
SETUP_REPEATS = 3

#: Latency percentile reported as ``op_tail_ms``, per workload: the
#: highest percentile with at least ten ops beyond it at the op count a
#: run of the benchmark's ``run_seconds`` reaches on a 2-core x86 host.
#: It is fixed so that runs with more or fewer ops stay comparable; a run
#: too short to leave ten ops beyond it says so in its report.
TAIL_PERCENTILE = {"grid": 90.0, "fresh": 50.0, "serve": 80.0, "codec": 75.0}

#: Modules imported before set-up is timed, so every set-up repeat pays
#: the same (zero) import cost.
PROGRAM_MODULES = (
    "repro.arch.sim",
    "repro.arch.term_maps",
    "repro.cache.store",
    "repro.calib.recalibrate",
    "repro.calib.stats",
    "repro.compression.codec",
    "repro.compression.schemes",
    "repro.core.deltas",
    "repro.data.synthesis",
    "repro.protect",
    "repro.serve",
    "repro.serve.fleet",
    "repro.utils.timing",
    "repro.weights",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.  Times are raw self times summed over the
#: timed ops; ``setup.``-prefixed ones and ``serve.measure_times_s`` cover
#: set-up instead.
PER_LAYER_UNITS = {
    "arch.simulate_self_s": "s",
    "arch.layer_cycles_s": "s",
    "arch.layer_cycles_calls": "count",
    "arch.layer_cycles_unique_ratio": "ratio",
    "arch.lowering_reuse_ratio": "ratio",
    "core.group_precisions_s": "s",
    "core.group_precisions_calls": "count",
    "compression.traffic_s": "s",
    "compression.traffic_calls": "count",
    "compression.traffic_unique_ratio": "ratio",
    "compression.precisions_s": "s",
    "compression.encode_s": "s",
    "compression.decode_s": "s",
    "compression.codec_calls": "count",
    "weights.msr_encode_s": "s",
    "weights.msr_decode_s": "s",
    "protect.store_s": "s",
    "protect.read_s": "s",
    "data.synthesize_s": "s",
    "models.prepare_s": "s",
    "nn.trace_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.bytes_written": "B",
    "serve.generate_s": "s",
    "serve.des_s": "s",
    "serve.measure_times_s": "s",
    "fleet.route_s": "s",
    "fleet.shards_s": "s",
    "setup.data.synthesize_s": "s",
    "setup.models.prepare_s": "s",
    "setup.nn.trace_s": "s",
    "setup.cache.store_s": "s",
    "setup.cache.bytes_written": "B",
    "arch.simulated_cycles": "cycles",
    "compression.simulated_bytes": "B",
    "trace.ops_per_s": "1/s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

_CACHE_LOAD_TIMER = re.compile(r"(^|/)cache\.[^/]+\.load$")

#: Host-speed probe: cadence, readings per catch-up after a long op, and
#: the reference duration (about the probe's median on the 2-core host the
#: bounds were set on, so scaled times stay close to raw host seconds).
PROBE_INTERVAL_S = 0.25
PROBE_BURST = 8
PROBE_REFERENCE_S = 0.004
_PROBE_DATA = None


def probe_s() -> float:
    """Host time of a fixed mix of interpreter and numpy work."""
    import numpy as np

    global _PROBE_DATA
    if _PROBE_DATA is None:
        _PROBE_DATA = np.arange(1 << 16, dtype=np.int64) * 2654435761 % 1000003
    start = time.perf_counter()
    table: "dict[int, int]" = {}
    for i in range(20000):
        key = i & 255
        table[key] = table.get(key, 0) + (i ^ key)
    total = 0
    for value in sorted(table.values()):
        total += value
    np.cumsum(np.sort(_PROBE_DATA ^ total) & 1023)
    return time.perf_counter() - start


class HostSpeed:
    """How much slower the host's interpreter ran than the probe's reference.

    A shared host's interpreter speed drifts by tens of percent over
    minutes: the same serve op, repeated for 100 s on the 2-core host,
    took 244-401 ms in 3.5 s windows, and the probe below drifted with it
    (window correlation 0.89).  The probe is benchmark code the program
    cannot change.  It runs between ops, about once per
    :data:`PROBE_INTERVAL_S` of elapsed time, and an interpreter-bound
    workload's op times are divided by the median reading over
    :data:`PROBE_REFERENCE_S`.  Drift common to the probe and the program
    cancels; a change in the program's own cost does not.  Numpy-bound
    workloads drift far less and do not track the probe (dividing by it
    tripled the fresh workload's spread), so they report raw host time.
    """

    def __init__(self) -> None:
        self.readings: "list[float]" = []
        self._last = time.perf_counter()

    def tick(self) -> None:
        elapsed = time.perf_counter() - self._last
        if elapsed >= PROBE_INTERVAL_S or not self.readings:
            for _ in range(max(1, min(PROBE_BURST, int(elapsed / PROBE_INTERVAL_S)))):
                self.readings.append(probe_s())
            self._last = time.perf_counter()

    def slowdown(self) -> float:
        return statistics.median(self.readings) / PROBE_REFERENCE_S


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def dir_bytes(path: Path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def git_state() -> dict:
    def git(*args: str) -> "str | None":
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout that is not a repository of its own must not report the
    # sha of some enclosing repository.
    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"git_sha": "unknown", "git_dirty": None}
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD") or "unknown",
            "git_dirty": None if dirty is None else bool(dirty)}


def manifest(args, user_env: dict, cache_state: dict) -> dict:
    import numpy
    import scipy

    from repro.compression.codec import active_codec_backend

    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "codec_backend": active_codec_backend(),
        "repro_env_at_start": user_env,
        "repro_env_in_run": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_dir_at_start": cache_state,
    }


def import_program() -> float:
    """Import the program from this checkout's ``src``; returns seconds."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    return elapsed


class Run:
    """One benchmark process: isolation, set-up, timed phase, results."""

    def __init__(self, args):
        self.args = args
        self.tmp = WORK / "tmp" / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.latencies: "list[float]" = []
        self.peak_rss_mb = 0.0
        self.items = 0
        self.outs: list = []
        self.ops: list = []

    def use_cache_dir(self, name: str) -> Path:
        path = self.tmp / name
        path.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def execute(self, workload, op, recorder=None) -> None:
        self.attempted += 1
        self.ops.append(op)
        span = recorder.begin("op") if recorder is not None else None
        start = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # a raising op counts as failed, run goes on
            self.latencies.append(time.perf_counter() - start)
            if span is not None:
                recorder.end(span)
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        if span is not None:
            recorder.end(span)
        try:
            errors = workload.check(op, out)
            self.items += workload.items(op, out)
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            self.fail(op, "; ".join(errors))
        elif recorder is not None:
            self.outs.append(out)
        if self.attempted <= workload.peak_rss_ops:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{op.kind} {op.args}: {message}")


def end_to_end(run: Run, workload_name: str, setup_s: float, slowdown: float
               ) -> "tuple[dict, dict]":
    """End-to-end metrics; op times are divided by the run's slowdown."""
    q = TAIL_PERCENTILE[workload_name]
    n = len(run.latencies)
    busy = sum(run.latencies)
    tail = percentile(run.latencies, q)
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / busy * slowdown,
        "items_per_s": run.items / busy * slowdown,
        "op_p50_ms": statistics.median(run.latencies) * 1e3 / slowdown,
        "op_tail_ms": tail * 1e3 / slowdown,
        "peak_rss_mb": run.peak_rss_mb,
    }
    beyond = sum(1 for x in run.latencies if x > tail)
    notes = {
        "op_tail": f"p{q:g} of {n} ops, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: run too short for this percentile)"),
        "failed_frac": run.failed / max(run.attempted, 1),
        "host_slowdown": slowdown,
        "raw_ops_per_s": n / busy,
        "raw_op_p50_ms": statistics.median(run.latencies) * 1e3,
        "raw_op_tail_ms": tail * 1e3,
    }
    return values, notes


class Counters:
    """Snapshot of the counters the program exports, for phase deltas."""

    def __init__(self, cache_dir: Path):
        from repro.arch.term_maps import lowering_stats
        from repro.cache.store import cache_stats
        from repro.compression.codec import codec_stats
        from repro.utils.timing import timer_stats

        cache = cache_stats()
        codec = codec_stats()
        self.values = {
            "hits": cache.hits,
            "misses": cache.misses,
            "stores": cache.stores,
            "codec_calls": codec.encodes + codec.decodes,
            "load_s": sum(
                t.total_s for k, t in timer_stats().items() if _CACHE_LOAD_TIMER.search(k)
            ),
            "bytes": dir_bytes(cache_dir),
            **{f"lower_{k}": v for k, v in lowering_stats().items()},
        }

    def delta(self, later: "Counters") -> dict:
        return {k: later.values[k] - v for k, v in self.values.items()}


def per_layer(workload, recorder, run: Run, setup_delta: dict, timed_delta: dict,
              span_cost: float) -> dict:
    from spans import unique_ratio

    self_s, calls, op_total = recorder.self_times("op")
    setup_s, _setup_calls, _ = recorder.self_times("setup")
    reused, computed = timed_delta["lower_reused"], timed_delta["lower_computed"]
    cycles = simulated_bytes = 0.0
    if hasattr(workload, "simulated_totals"):
        cycles, simulated_bytes = workload.simulated_totals(run.outs)
    op_spans = sum(calls.values())
    values = {
        "arch.simulate_self_s": self_s.get("arch.simulate", 0.0),
        "arch.layer_cycles_s": self_s.get("arch.layer_cycles", 0.0),
        "arch.layer_cycles_calls": calls.get("arch.layer_cycles", 0),
        "arch.layer_cycles_unique_ratio": unique_ratio(recorder.keys.get("arch.layer_cycles")),
        "arch.lowering_reuse_ratio": reused / (reused + computed) if reused + computed else 0.0,
        "core.group_precisions_s": self_s.get("core.group_precisions", 0.0),
        "core.group_precisions_calls": calls.get("core.group_precisions", 0),
        "compression.traffic_s": self_s.get("compression.traffic", 0.0),
        "compression.traffic_calls": calls.get("compression.traffic", 0),
        "compression.traffic_unique_ratio": unique_ratio(
            recorder.keys.get("compression.traffic")
        ),
        "compression.precisions_s": self_s.get("compression.precisions", 0.0),
        "compression.encode_s": self_s.get("compression.encode", 0.0),
        "compression.decode_s": self_s.get("compression.decode", 0.0),
        "compression.codec_calls": timed_delta["codec_calls"],
        "weights.msr_encode_s": self_s.get("weights.msr_encode", 0.0),
        "weights.msr_decode_s": self_s.get("weights.msr_decode", 0.0),
        "protect.store_s": self_s.get("protect.store", 0.0),
        "protect.read_s": self_s.get("protect.read", 0.0),
        "data.synthesize_s": self_s.get("data.synthesize", 0.0),
        "models.prepare_s": self_s.get("models.prepare", 0.0),
        "nn.trace_s": self_s.get("nn.trace", 0.0),
        "cache.hits": timed_delta["hits"],
        "cache.misses": timed_delta["misses"],
        "cache.stores": timed_delta["stores"],
        "cache.load_s": timed_delta["load_s"],
        "cache.store_s": self_s.get("cache.store", 0.0),
        "cache.bytes_written": timed_delta["bytes"],
        "serve.generate_s": self_s.get("serve.generate", 0.0),
        "serve.des_s": self_s.get("serve.des", 0.0),
        "serve.measure_times_s": setup_s.get("serve.measure_times", 0.0),
        "fleet.route_s": self_s.get("fleet.route", 0.0),
        "fleet.shards_s": self_s.get("fleet.shards", 0.0),
        "setup.data.synthesize_s": setup_s.get("data.synthesize", 0.0),
        "setup.models.prepare_s": setup_s.get("models.prepare", 0.0),
        "setup.nn.trace_s": setup_s.get("nn.trace", 0.0),
        "setup.cache.store_s": setup_s.get("cache.store", 0.0),
        "setup.cache.bytes_written": setup_delta["bytes"],
        "arch.simulated_cycles": cycles,
        "compression.simulated_bytes": simulated_bytes,
        "trace.ops_per_s": len(run.latencies) / sum(run.latencies),
        "trace.unattributed_frac": self_s.get("op", 0.0) / op_total,
        "trace.overhead_frac": op_spans * span_cost / op_total,
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_NO_CACHE", "").strip():
        raise BenchError("REPRO_NO_CACHE is set; it changes every workload, refusing to run")
    user_env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run = Run(args)
    shutil.rmtree(run.tmp, ignore_errors=True)  # left by a killed run with this pid
    run.tmp.mkdir(parents=True)
    try:
        return measure(args, run, WORKLOADS[args.workload](args.seed), user_env)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)


def measure(args, run: Run, workload, user_env: dict) -> int:
    os.environ["TMPDIR"] = str(run.tmp)
    first_cache = run.use_cache_dir("cache-0")
    cache_state = {"path": str(first_cache.relative_to(ROOT)),
                   "entries": sum(1 for _ in first_cache.rglob("*"))}
    import_s = import_program()
    from repro.cache.store import clear_memory_caches

    from spans import Recorder, span_cost_s

    recorder = None
    repeats = SETUP_REPEATS
    if args.trace:
        recorder = Recorder()
        recorder.install()
        repeats = 1
    setup_times = []
    for r in range(repeats):
        cache_dir = first_cache if r == 0 else run.use_cache_dir(f"cache-{r}")
        clear_memory_caches()
        before = Counters(cache_dir)
        span = recorder.begin("setup") if recorder is not None else None
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if span is not None:
            recorder.end(span)
        setup_delta = before.delta(Counters(cache_dir))
        if r:
            shutil.rmtree(run.tmp / f"cache-{r - 1}", ignore_errors=True)
    if workload.clear_memos_after_setup:
        clear_memory_caches()
    before = Counters(cache_dir)

    if recorder is not None:
        recorder.keys.clear()
        for op in workload.reference_ops():
            run.execute(workload, op, recorder)
        recorder.uninstall()
    else:
        speed = HostSpeed() if workload.interpreter_bound else None
        deadline = time.perf_counter() + args.seconds
        ops = workload.ops()
        while time.perf_counter() < deadline:
            if speed is not None:
                speed.tick()
            run.execute(workload, next(ops))
    timed_delta = before.delta(Counters(cache_dir))

    info = manifest(args, user_env, cache_state)
    print("manifest " + json.dumps(info, sort_keys=True))
    print("reuse " + json.dumps(workload.reuse(run.ops), sort_keys=True))
    if recorder is not None:
        values = per_layer(workload, recorder, run, setup_delta, timed_delta, span_cost_s())
        units = PER_LAYER_UNITS
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        recorder.write(trace_path, {"manifest": info})
        print(f"spans {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(
            run, args.workload, import_s + statistics.median(setup_times),
            speed.slowdown() if speed is not None else 1.0,
        )
        units = END_TO_END_UNITS
        print("notes " + json.dumps(notes, sort_keys=True))
    print(f"items: {workload.item}")
    print(f"workload {args.workload}: {run.attempted} ops, {run.failed} failed, "
          f"failed_frac {run.failed / max(run.attempted, 1):.6g} (ratio)")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

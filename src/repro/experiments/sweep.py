"""Parallel (model × accelerator × scheme × memory) simulation sweeps.

The figure experiments each walk a slice of the same configuration grid;
this module is the general-purpose runner: it expands a full cartesian
grid, fans the points across a :class:`~concurrent.futures.ProcessPoolExecutor`,
and returns one :class:`SweepRow` per point.  The :mod:`repro.cache` disk
store is the cross-process share point — a *warm phase* first computes
each distinct model's traces (one task per model, the expensive part),
so the grid fan-out that follows hits the disk cache instead of
re-tracing per worker.

Resilience (a sweep is the longest-running thing in this repo, and it
must survive the failures long runs meet):

- **Per-task timeout and bounded retry** — every grid point gets
  ``RetryPolicy.attempts`` tries with exponential backoff; a pooled task
  that times out or whose worker dies is retried serially.  Points that
  exhaust the budget become :class:`SweepFailure` rows on the result
  instead of aborting the grid.
- **Pool degradation** — if the process pool cannot be created or dies
  (``BrokenProcessPool``), the runner falls back to serial execution.
- **Crash-safe checkpointing** — with ``checkpoint=<path>`` every
  completed row is appended to a JSONL file as it finishes;
  ``resume=True`` reloads completed rows (tolerating a torn final line
  from a crash) and re-runs only the missing points.  A meta header pins
  the grid settings so a stale checkpoint cannot silently poison a
  different sweep.

Serial execution (``max_workers=0``) runs everything in-process — the
right choice inside tests, sandboxes without ``fork``, or when the cache
is already warm and the grid is small.

CLI::

    python -m repro.experiments.sweep --models DnCNN FFDNet \
        --accelerators VAA PRA Diffy --schemes DeltaD16 --workers 4 \
        --checkpoint sweep.jsonl --resume
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.sim import (
    DEFAULT_MEMORY,
    DEFAULT_SCHEME,
    HD_RESOLUTION,
    LayerResult,
    NetworkResult,
    collect_traces,
    simulate_network,
)
from repro.cache.store import stable_digest
from repro.compression.traffic import LayerTraffic
from repro.experiments.common import CI_MODEL_NAMES, format_table, geomean
from repro.utils import timing
from repro.utils.checkpoint import JsonlCheckpoint
from repro.utils.pool import DEFAULT_RETRY, RetryPolicy, run_tasks
from repro.utils.rng import DEFAULT_SEED

__all__ = [
    "SweepPoint",
    "SweepRow",
    "SweepFailure",
    "SweepResult",
    "RetryPolicy",
    "sweep_grid",
    "run_sweep",
]

#: Accelerators of the headline comparison (Fig 11/13 order).
DEFAULT_ACCELERATORS = ("VAA", "PRA", "Diffy")


# RetryPolicy/DEFAULT_RETRY moved to repro.utils.pool (shared with the
# fleet shard runner); re-exported here for backward compatibility.


@dataclass(frozen=True)
class SweepPoint:
    """One (model, accelerator, scheme, memory) grid coordinate."""

    model: str
    accelerator: str
    scheme: str
    memory: str


@dataclass(frozen=True)
class SweepRow:
    """A grid point plus its simulated :class:`NetworkResult`."""

    point: SweepPoint
    result: NetworkResult

    @property
    def fps(self) -> float:
        return self.result.fps

    @property
    def total_time_s(self) -> float:
        return self.result.total_time_s


@dataclass(frozen=True)
class SweepFailure:
    """A grid point that exhausted its retry budget; the sweep kept going."""

    point: SweepPoint
    error: str
    attempts: int


@dataclass(frozen=True)
class SweepResult:
    """All rows of one sweep, with grid-level convenience queries."""

    rows: tuple[SweepRow, ...]
    resolution: tuple[int, int]
    failures: tuple[SweepFailure, ...] = ()
    #: True when the ``max_failures`` circuit breaker tripped: the sweep
    #: stopped early and unattempted points are neither rows nor failures.
    #: Completed rows were checkpointed, so ``resume`` picks up the rest.
    aborted: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    def select(
        self,
        model: Optional[str] = None,
        accelerator: Optional[str] = None,
        scheme: Optional[str] = None,
        memory: Optional[str] = None,
    ) -> list[SweepRow]:
        """Rows matching every given coordinate."""
        return [
            r
            for r in self.rows
            if (model is None or r.point.model == model)
            and (accelerator is None or r.point.accelerator == accelerator)
            and (scheme is None or r.point.scheme == scheme)
            and (memory is None or r.point.memory == memory)
        ]

    def speedups_over(self, baseline_accelerator: str = "VAA") -> dict[SweepPoint, float]:
        """Per-point speedup over the baseline accelerator's matching point.

        Points whose (model, scheme, memory) has no baseline row are
        skipped (e.g. a sweep that never ran the baseline).
        """
        base = {
            (r.point.model, r.point.scheme, r.point.memory): r.result
            for r in self.rows
            if r.point.accelerator == baseline_accelerator
        }
        out = {}
        for row in self.rows:
            if row.point.accelerator == baseline_accelerator:
                continue
            ref = base.get((row.point.model, row.point.scheme, row.point.memory))
            if ref is not None:
                out[row.point] = row.result.speedup_over(ref)
        return out

    def geomean_speedup(
        self, accelerator: str, baseline_accelerator: str = "VAA"
    ) -> float:
        """Geomean speedup of one accelerator over the baseline."""
        ratios = [
            s
            for p, s in self.speedups_over(baseline_accelerator).items()
            if p.accelerator == accelerator
        ]
        return geomean(ratios)


def sweep_grid(
    models: Sequence[str],
    accelerators: Sequence[str],
    schemes: Sequence[str],
    memories: Sequence[str],
) -> tuple[SweepPoint, ...]:
    """The cartesian product of the four coordinate axes."""
    return tuple(
        SweepPoint(m, a, s, mem)
        for m, a, s, mem in itertools.product(models, accelerators, schemes, memories)
    )


def _simulate_point(args: tuple) -> SweepRow:
    """Worker entry: simulate one grid point (module-level for pickling)."""
    point, resolution, dataset_name, trace_count, crop, seed = args
    result = simulate_network(
        point.model,
        point.accelerator,
        scheme=point.scheme,
        memory=point.memory,
        resolution=resolution,
        dataset_name=dataset_name,
        trace_count=trace_count,
        crop=crop,
        seed=seed,
    )
    return SweepRow(point=point, result=result)


def _warm_traces(args: tuple) -> str:
    """Worker entry for the warm phase: populate the disk cache."""
    model, dataset_name, trace_count, crop, seed = args
    collect_traces(model, dataset_name, trace_count, crop, seed)
    return model


# --------------------------------------------------------------------------
# Checkpointing


def _row_to_json(row: SweepRow) -> dict:
    """JSONL record for one completed row (full float precision)."""
    return {
        "kind": "row",
        "point": dataclasses.asdict(row.point),
        "result": dataclasses.asdict(row.result),
    }


def _row_from_json(doc: dict) -> SweepRow:
    """Rebuild a :class:`SweepRow`; exact inverse of :func:`_row_to_json`."""
    res = dict(doc["result"])
    layers = tuple(
        LayerResult(**{**layer, "traffic": LayerTraffic(**layer["traffic"])})
        for layer in res["layers"]
    )
    res["layers"] = layers
    res["resolution"] = tuple(res["resolution"])
    return SweepRow(point=SweepPoint(**doc["point"]), result=NetworkResult(**res))


def run_sweep(
    models: Sequence[str] = CI_MODEL_NAMES,
    accelerators: Sequence[str] = DEFAULT_ACCELERATORS,
    schemes: Sequence[str] = (DEFAULT_SCHEME,),
    memories: Sequence[str] = (DEFAULT_MEMORY,),
    resolution: tuple[int, int] = HD_RESOLUTION,
    dataset_name: str = "HD33",
    trace_count: int = 2,
    crop: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    max_workers: Optional[int] = None,
    warm: bool = True,
    retry: Optional[RetryPolicy] = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: bool = False,
    max_failures: Optional[int] = None,
) -> SweepResult:
    """Run the full grid; see module docstring.

    ``max_workers=None`` sizes the pool to the grid and CPU count;
    ``max_workers=0`` forces serial in-process execution.  ``warm``
    controls the trace-precompute phase (pointless when serial, where
    in-process memoization already shares traces).  ``retry`` bounds
    per-point attempts/timeouts; ``checkpoint``/``resume`` persist and
    reload completed rows (see the checkpointing notes above).
    ``max_failures`` aborts the sweep after that many consecutive
    retry-exhausted points (``result.aborted``); the checkpoint holds
    every completed row, so a later ``resume`` continues where it stopped.
    """
    policy = retry if retry is not None else DEFAULT_RETRY
    points = sweep_grid(models, accelerators, schemes, memories)
    point_args = [
        (p, resolution, dataset_name, trace_count, crop, seed) for p in points
    ]

    done: dict[SweepPoint, SweepRow] = {}
    ckpt: Optional[JsonlCheckpoint] = None
    if checkpoint is not None:
        digest = stable_digest(
            "sweep-checkpoint",
            points,
            resolution,
            dataset_name,
            trace_count,
            crop,
            seed,
        )
        ckpt = JsonlCheckpoint(
            checkpoint,
            digest,
            prefix="sweep",
            what="sweep",
            encode=_row_to_json,
            decode=_row_from_json,
            key=lambda row: row.point,
        )
        done = ckpt.load(resume)

    todo = [a for a in point_args if a[0] not in done]

    if max_workers is None:
        max_workers = min(len(todo), os.cpu_count() or 1) if todo else 0

    on_row = ckpt.append if ckpt is not None else (lambda row: None)
    warm_args = [
        (m, dataset_name, trace_count, crop, seed)
        for m in sorted({a[0].model for a in todo})
    ]

    failures: list[SweepFailure] = []
    aborted = False
    with timing.timed("sweep.run"):
        if todo:
            outcome = run_tasks(
                _simulate_point,
                todo,
                max_workers=max_workers,
                policy=policy,
                warm_fn=_warm_traces if warm else None,
                warm_args=warm_args,
                on_result=lambda index, row: on_row(row),
                max_failures=max_failures,
                executor_factory=ProcessPoolExecutor,
                counter_prefix="sweep",
            )
            done.update(
                {todo[i][0]: row for i, row in enumerate(outcome.results) if row is not None}
            )
            failures = [
                SweepFailure(point=todo[f.index][0], error=f.error, attempts=f.attempts)
                for f in outcome.failures
            ]
            aborted = outcome.aborted
    ordered = tuple(done[p] for p in points if p in done)
    return SweepResult(
        rows=ordered,
        resolution=resolution,
        failures=tuple(failures),
        aborted=aborted,
    )


def format_result(result: SweepResult) -> str:
    headers = ["model", "accelerator", "scheme", "memory", "fps", "time/frame"]
    rows = [
        [
            r.point.model,
            r.point.accelerator,
            r.point.scheme,
            r.point.memory,
            f"{r.fps:.2f}",
            f"{r.total_time_s * 1e3:.1f}ms",
        ]
        for r in result.rows
    ]
    h, w = result.resolution
    text = format_table(headers, rows, title=f"sweep at {w}x{h} ({len(rows)} points)")
    if result.failures:
        lines = [text, "", f"FAILED points ({len(result.failures)}):"]
        for f in result.failures:
            lines.append(
                f"  {f.point.model}/{f.point.accelerator}/{f.point.scheme}/"
                f"{f.point.memory}: {f.error} (after {f.attempts} attempts)"
            )
        text = "\n".join(lines)
    if result.aborted:
        text += (
            "\nABORTED: consecutive-failure limit reached; "
            "re-run with --checkpoint/--resume to continue"
        )
    return text


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="+", default=list(CI_MODEL_NAMES))
    parser.add_argument("--accelerators", nargs="+", default=list(DEFAULT_ACCELERATORS))
    parser.add_argument("--schemes", nargs="+", default=[DEFAULT_SCHEME])
    parser.add_argument("--memories", nargs="+", default=[DEFAULT_MEMORY])
    parser.add_argument("--trace-count", type=int, default=2)
    parser.add_argument("--dataset", default="HD33")
    parser.add_argument("--crop", type=int, default=None)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process count (0 = serial; default: min(grid, cpus))",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRY.attempts,
        help="total attempts per grid point (1 = no retry)",
    )
    parser.add_argument(
        "--backoff", type=float, default=DEFAULT_RETRY.backoff_s,
        help="initial wait between attempts (doubles each retry)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-task timeout in seconds for pooled execution",
    )
    parser.add_argument(
        "--checkpoint", default=None,
        help="JSONL file recording completed rows as they finish",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reload completed rows from --checkpoint and run only the rest",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None,
        help="abort after N consecutive failed points (default: keep going)",
    )
    args = parser.parse_args(argv)
    if args.max_failures is not None and args.max_failures < 1:
        parser.error("--max-failures must be >= 1")
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    result = run_sweep(
        models=args.models,
        accelerators=args.accelerators,
        schemes=args.schemes,
        memories=args.memories,
        dataset_name=args.dataset,
        trace_count=args.trace_count,
        crop=args.crop,
        max_workers=args.workers,
        retry=RetryPolicy(
            attempts=args.retries, backoff_s=args.backoff, timeout_s=args.timeout
        ),
        checkpoint=args.checkpoint,
        resume=args.resume,
        max_failures=args.max_failures,
    )
    print(format_result(result))
    if "VAA" in args.accelerators:
        for acc in args.accelerators:
            if acc != "VAA":
                print(f"geomean {acc}/VAA: {result.geomean_speedup(acc):.2f}x")
    return 1 if result.failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

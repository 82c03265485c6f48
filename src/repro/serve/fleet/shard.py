"""The serving engine: one node's arrival stream served to quiescence.

Every serving path runs here — the single-node service
(:func:`repro.serve.service.serve_workload` wraps a 1-node stream) and
each node of a fleet (:mod:`repro.serve.fleet.service`).  The engine is a
scalar event loop over four event kinds:

- **arrival** — admit to the bounded queue or shed (queue full =
  backpressure); an admitted arrival tries to dispatch.
- **completion** — a batch finishes (completions wait on a
  ``(time, seq, batch)`` heap): free the worker, record each request's
  latency and deadline outcome, try to dispatch.
- **wait timer** — at most one, at ``arrival[oldest] + max_wait_s``
  while a worker idles on a partial batch; firing tries to dispatch.
- **crash** — with chaos, a down window sheds the queue, kills in-flight
  batches and wipes the temporal state store.

Dispatch sheds expired requests (deadline policy), then, while a worker
is idle and the batch is ready (full, or the oldest request has waited
out ``max_wait_s``), takes up to ``max_batch`` requests, prices each
cold/warm through the state store and occupies the worker for the
per-batch overhead plus the request times.  ``max_wait_s=0`` is greedy
dispatch.  Ties fire crash < arrival < completion < timer; the order and
every float accumulation match the discrete-event reference kept in
``tests/serve_oracle.py`` bit for bit.  The loop draws no randomness.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.serve.chaos.schedule import NodeChaos
from repro.serve.chaos.telemetry import ChaosTelemetry
from repro.serve.latency import ServiceTimes
from repro.serve.service import ServeConfig
from repro.serve.state import StateStats, TemporalStateStore
from repro.serve.telemetry import CalibTelemetry, ServeTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only; serve never imports
    # calib at runtime (the dependency points the other way).
    from repro.calib.recalibrate import CalibrationController

__all__ = ["ShardStream", "ShardResult", "simulate_shard"]


@dataclass(frozen=True)
class ShardStream:
    """The arrival substream one router pass assigned to one node.

    Columnar (one array per field) so streams pickle compactly into pool
    workers.  ``migrated`` marks requests whose session previously lived
    on another node (router-observed; the node's state store
    independently confirms the cold re-anchor).  ``scene_cut``/``motion``
    carry the per-frame video dynamics of
    :func:`repro.serve.workload.apply_scene_dynamics`; omitting them
    yields the static-pan defaults (no cuts, baseline motion).
    """

    node_id: int
    arrival_s: np.ndarray
    session_id: np.ndarray
    frame_index: np.ndarray
    migrated: np.ndarray
    scene_cut: Optional[np.ndarray] = None
    motion: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.arrival_s)
        if self.scene_cut is None:
            object.__setattr__(self, "scene_cut", np.zeros(n, dtype=bool))
        if self.motion is None:
            object.__setattr__(self, "motion", np.ones(n, dtype=np.float64))
        lengths = (
            len(self.session_id),
            len(self.frame_index),
            len(self.migrated),
            len(self.scene_cut),
            len(self.motion),
        )
        if any(length != n for length in lengths):
            raise ValueError("ShardStream columns must have equal length")
        if n and bool(np.any(np.diff(self.arrival_s) < 0)):
            raise ValueError("ShardStream arrivals must be sorted by time")

    def __len__(self) -> int:
        return len(self.arrival_s)

    @classmethod
    def from_requests(cls, node_id, requests, migrated=None):
        """Build a stream from :class:`~repro.serve.workload.Request` objects."""
        reqs = list(requests)
        flags = list(migrated) if migrated is not None else [False] * len(reqs)
        return cls(
            node_id=int(node_id),
            arrival_s=np.array([r.arrival_s for r in reqs], dtype=np.float64),
            session_id=np.array([r.session_id for r in reqs], dtype=np.int64),
            frame_index=np.array([r.frame_index for r in reqs], dtype=np.int64),
            migrated=np.array(flags, dtype=bool),
            scene_cut=np.array([r.scene_cut for r in reqs], dtype=bool),
            motion=np.array([r.motion for r in reqs], dtype=np.float64),
        )


@dataclass
class ShardResult:
    """One node's simulated outcome (telemetry merges across nodes)."""

    node_id: int
    telemetry: ServeTelemetry
    state: StateStats
    routed: int
    migrated_in: int
    chaos: Optional[ChaosTelemetry] = None
    calib: Optional[CalibTelemetry] = None


def simulate_shard(
    stream: ShardStream,
    times: ServiceTimes,
    config: ServeConfig,
    chaos: Optional[NodeChaos] = None,
    calib: "Optional[CalibrationController]" = None,
) -> ShardResult:
    """Serve one node's substream to quiescence.

    With ``chaos`` the node additionally executes its slice of the chaos
    timeline: crash windows shed the queue, kill in-flight batches and
    wipe the temporal state store; degrade windows scale batch service
    times; storage chaos resolves each warm state read to a seeded
    clean/corrected/detected/silent outcome (detected invalidates the
    session, forcing a priced re-anchor).  Without ``chaos`` no chaos
    path runs and the fault-free telemetry is unchanged.

    With ``calib`` (a built
    :class:`repro.calib.recalibrate.CalibrationController`) the node runs
    the precision-calibration control loop on every served frame; its
    counters land in the result's ``calib`` telemetry.  Table swaps bump
    the state store's calibration version, so resident sessions
    re-anchor cold (priced as ``reanchors_recal``).
    """
    n = len(stream)
    arr = stream.arrival_s.tolist()
    sid = stream.session_id.tolist()
    fidx = stream.frame_index.tolist()
    cut = stream.scene_cut.tolist()
    motion = stream.motion.tolist()
    deadline = [t + config.deadline_s for t in arr]
    max_batch = config.max_batch
    capacity = config.queue_capacity
    wait_s = config.max_wait_s
    overhead_s = config.batch_overhead_s(times)
    telemetry = ServeTelemetry(max_batch=max_batch, queue_capacity=capacity)
    storage = chaos.storage if chaos is not None else None
    state_bytes = times.state_bytes
    if storage is not None:
        # Protected state is bigger: the ladder's storage overhead
        # inflates each session's resident footprint, so the same byte
        # cap holds fewer warm sessions — protection's capacity cost,
        # charged even at fault rate zero.
        state_bytes = max(1, int(round(times.state_bytes * storage.overhead)))
    state = TemporalStateStore(config.state_capacity_bytes, state_bytes)
    ctel = ChaosTelemetry(duration_s=chaos.duration_s) if chaos is not None else None
    #: session id -> invalidation time, awaiting its next warm serve.
    recovering: "dict[int, float]" = {}
    down = list(chaos.down) if chaos is not None else []
    di = 0  # next crash window index

    idle = config.workers
    queue: "list[int]" = []  # admitted request indices, FIFO via head pointer
    head = 0
    busy: "list[tuple[float, int, list[int]]]" = []  # (completion time, seq, batch)
    seq = 0
    i = 0  # next arrival index

    def crash(at_s: float) -> None:
        """Lose the node: queue, in-flight work, and temporal state."""
        nonlocal head, idle
        shed = len(queue) - head
        head = len(queue)
        killed = sum(len(batch) for _, _, batch in busy)
        busy.clear()
        idle = config.workers
        lost = state.invalidate_all()
        for session in lost:
            recovering.setdefault(session, at_s)
        ctel.on_crash(shed, killed, len(lost))

    def dispatch(now: float) -> None:
        """Shed expired requests, then dispatch ready batches to idle workers."""
        nonlocal head, idle, seq
        while idle > 0:
            expired = 0
            while head < len(queue) and deadline[queue[head]] < now:
                head += 1
                expired += 1
            if expired:
                telemetry.on_deadline_shed(expired)
            queued = len(queue) - head
            # The readiness test is the wait timer's own expression, so a
            # timer that fires at the expiry always finds the batch ready.
            # The algebraically equal (now - oldest) >= max_wait_s is NOT
            # safe: when (oldest + w) - oldest rounds below w the timer
            # would fire, find the batch not ready, and re-fire forever.
            if not queued or (queued < max_batch and now < arr[queue[head]] + wait_s):
                return
            batch = queue[head : head + max_batch]
            head += len(batch)
            service_s = overhead_s
            if calib is not None:
                # Complete any due measured recalibration before pricing
                # this batch: every frame below is served entirely under
                # one table generation (the atomic-swap guarantee).
                calib.advance(now, state)
            for j in batch:
                s, f, is_cut = sid[j], fidx[j], cut[j]
                if storage is not None and not is_cut and state.is_warm(s, f):
                    outcome = storage.outcome(s, f, now)
                    ctel.on_storage(outcome)
                    if outcome == "detected":
                        # The ladder flagged the stored state: drop it and
                        # re-anchor rather than serve corrupt output.
                        state.invalidate(s)
                        recovering.setdefault(s, now)
                if ctel is not None:
                    before = state.stats.reanchors
                mode = state.serve(s, f, scene_cut=is_cut)
                service_s += times.request_s(mode, motion[j])
                if calib is not None:
                    calib.on_frame(now, s, f, arr[j], state)
                if ctel is not None:
                    warm = mode == "temporal"
                    ctel.on_serve(now, warm, state.stats.reanchors > before)
                    if warm and recovering:
                        t0 = recovering.pop(s, None)
                        if t0 is not None:
                            ctel.on_recovery(now - t0)
            if chaos is not None:
                slowdown = chaos.slowdown_at(now)
                if slowdown != 1.0:
                    service_s *= slowdown
            idle -= 1
            telemetry.on_batch(len(batch), service_s)
            heapq.heappush(busy, (now + service_s, seq, batch))
            seq += 1

    while True:
        t_arr = arr[i] if i < n else math.inf
        t_done = busy[0][0] if busy else math.inf
        # The one wait timer: armed while a worker idles on a partial batch.
        t_wait = arr[queue[head]] + wait_s if idle and head < len(queue) else math.inf
        t_next = min(t_arr, t_done, t_wait)
        if di < len(down) and down[di][0] <= t_next:
            # The crash fires before any event at or past its timestamp:
            # queued and in-flight work at the instant of the crash is
            # lost.  Windows past quiescence still wipe resident state, so
            # the node's crash accounting matches its schedule slice.
            crash(down[di][0])
            di += 1
        elif t_next == math.inf:
            break
        elif t_arr == t_next:
            if len(queue) - head < capacity:
                queue.append(i)
                telemetry.on_arrival(True, len(queue) - head)
                i += 1
                dispatch(t_arr)
            else:
                telemetry.on_arrival(False, capacity)
                i += 1
        elif t_done == t_next:
            now, _, batch = heapq.heappop(busy)
            idle += 1
            for j in batch:
                telemetry.on_completion(now - arr[j], now <= deadline[j])
            dispatch(now)
        else:
            dispatch(t_wait)

    return ShardResult(
        node_id=stream.node_id,
        telemetry=telemetry,
        state=state.stats,
        routed=n,
        migrated_in=int(np.count_nonzero(stream.migrated)),
        chaos=ctel,
        calib=calib.telemetry if calib is not None else None,
    )

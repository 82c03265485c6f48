"""The benchmark's four workloads: seeded generators, set-up, ops, checks.

Each workload is a closed loop: one client issues one operation ("op"),
waits for it, checks its output, then issues the next.  Ops come from a
generator seeded by the benchmark's own ``--seed``; the program only
sees the generated arguments.  Every generator interleaves its op kinds
in fixed-size rounds, so any prefix of the op stream has nearly the
same mix of cheap and costly ops and a run's throughput does not hinge
on which kinds the seed happened to put first.

- ``grid``  — design-space sweep of ``simulate_network`` queries.
- ``fresh`` — new-seed first results from an empty disk cache.
- ``serve`` — seeded serving runs on the DES and the fleet shard engine.
- ``codec`` — encode+decode round trips of traced activation maps.

See ``run.py`` for the metrics and the reasons each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Iterator, Optional

import numpy as np

#: The five CI denoisers of Table I (the ``regression check`` models).
MODELS = ("DnCNN", "FFDNet", "IRCNN", "JointNet", "VDSR")
ACCELERATORS = ("VAA", "PRA", "Diffy", "VP")
#: Fig 14's scheme sweep (it contains Fig 15's three schemes), in the
#: order the grid visits them: cheap and costly traffic models alternate,
#: so every prefix of a run prices a similar mix.
SCHEMES = (
    "NoCompression", "DeltaD16", "Profiled", "DeltaD256", "RLEz", "RawD8", "RLE",
    "RawD16", "RawD256",
)
#: Fig 15's six memory nodes plus the headline DDR4-3200 and Ideal memory.
MEMORIES = (
    "LPDDR3-1600", "LPDDR3E-2133", "LPDDR4-3200", "LPDDR4X-3733", "LPDDR4X-4267",
    "HBM2", "DDR4-3200", "Ideal",
)
#: HD plus Fig 17's resolution sweep.
RESOLUTIONS = ((1080, 1920), (240, 320), (320, 480), (480, 512), (512, 768), (600, 1024))
#: The ``regression check --profile ci`` crop and trace count.
CI_CROP = 48
CI_TRACE_COUNT = 2

#: Seed of the fixed op set a traced run executes (see ``reference_ops``).
REFERENCE_SEED = 20181020


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@dataclass(frozen=True)
class Op:
    """One operation: its kind and the arguments the program receives."""

    kind: str
    args: tuple
    items: int = 0


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    item = ""
    #: Drop in-process memos between set-up and the timed phase.
    clear_memos_after_setup = False
    #: Op time is mostly interpreter work, so ``run.py`` divides it by the
    #: host's measured interpreter slowdown (see ``run.HostSpeed``).
    interpreter_bound = False
    #: Ops a traced run executes (a fixed, seed-independent set).
    reference_size = 0
    #: ``peak_rss_mb`` is the peak through set-up and this many ops, an op
    #: count every run reaches, so a run that fits more ops into its time
    #: (and memoizes more) does not read as using more memory.
    peak_rss_ops = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Everything before the first timed op."""

    def ops(self, seed: Optional[int] = None) -> Iterator[Op]:
        raise NotImplementedError

    def reference_ops(self) -> "list[Op]":
        """The fixed op set of a traced run, shuffled by the run's seed.

        The set is the first ``reference_size`` ops of the generator at
        :data:`REFERENCE_SEED`, so two traced runs do exactly the same
        simulated work whatever their seeds, and the exact simulated
        totals repeat across seeds.
        """
        gen = self.ops(REFERENCE_SEED)
        ops = [next(gen) for _ in range(self.reference_size)]
        order = _rng(self.seed, 99).permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def items(self, op: Op, out: Any) -> int:
        return op.items

    def check(self, op: Op, out: Any) -> "list[str]":
        return []

    def reuse(self, ops: "list[Op]") -> dict:
        return {}


# ---- grid and fresh: simulate_network ------------------------------------


def check_network_result(result, model: str) -> "list[str]":
    """Invariants every ``NetworkResult`` satisfies on its own."""
    errors = []
    if result.network != model:
        errors.append(f"network {result.network!r} != {model!r}")
    if not result.layers:
        errors.append("no layers")
    for layer in result.layers:
        if layer.time_s != max(layer.compute_time_s, layer.mem_time_s):
            errors.append(f"{layer.name}: time_s != max(compute, mem)")
        if not (layer.compute_cycles >= 0 and math.isfinite(layer.compute_cycles)):
            errors.append(f"{layer.name}: compute_cycles {layer.compute_cycles!r}")
        if not (layer.traffic.total_bytes > 0 and math.isfinite(layer.traffic.total_bytes)):
            errors.append(f"{layer.name}: traffic {layer.traffic.total_bytes!r}")
    totals = (
        ("total_time_s", result.total_time_s, [lay.time_s for lay in result.layers]),
        ("total_cycles", result.total_cycles, [lay.compute_cycles for lay in result.layers]),
        ("traffic_bytes", result.traffic_bytes,
         [lay.traffic.total_bytes for lay in result.layers]),
        ("stall_s", result.stall_s, [lay.stall_s for lay in result.layers]),
    )
    for name, total, parts in totals:
        if not _close(total, math.fsum(parts)):
            errors.append(f"{name} {total!r} != sum of layers {math.fsum(parts)!r}")
    return errors


class SimulateWorkload(Workload):
    """Shared checks and simulated totals of ``grid`` and ``fresh``."""

    item = "simulated network layer"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reset_checks()

    def reset_checks(self) -> None:
        self._traffic: "dict[tuple, tuple]" = {}
        self._cycles: "dict[tuple, tuple]" = {}

    def run(self, op: Op):
        from repro.arch.sim import simulate_network

        model, accelerator, scheme, memory, resolution, seed = op.args
        return simulate_network(
            model, accelerator, scheme, memory, resolution=resolution,
            trace_count=CI_TRACE_COUNT, crop=CI_CROP, seed=seed,
        )

    def items(self, op: Op, out) -> int:
        return len(out.layers)

    def check(self, op: Op, out) -> "list[str]":
        model, accelerator, scheme, memory, resolution, seed = op.args
        errors = check_network_result(out, model)
        if memory == "Ideal" and any(layer.stall_s != 0.0 for layer in out.layers):
            errors.append("Ideal memory stalled")
        # Traffic depends on (model, scheme, resolution) only; cycles on
        # (model, accelerator) only, scaled to the resolution.
        traffic = tuple(
            (lay.traffic.imap_bytes, lay.traffic.omap_bytes, lay.traffic.weight_bytes)
            for lay in out.layers
        )
        cycles = tuple(lay.compute_cycles for lay in out.layers)
        for table, key, value, what in (
            (self._traffic, (model, scheme, resolution, seed), traffic,
             "traffic differs across accelerators/memories"),
            (self._cycles, (model, accelerator, resolution, seed), cycles,
             "cycles differ across memories"),
        ):
            seen = table.setdefault(key, value)
            if seen != value:
                errors.append(f"{what} for {key}")
        return errors

    @staticmethod
    def simulated_totals(outs: "list") -> "tuple[float, float]":
        """Exact (order-independent) cycle and byte sums over results."""
        return (
            math.fsum(r.total_cycles for r in outs),
            math.fsum(r.traffic_bytes for r in outs),
        )


class GridWorkload(SimulateWorkload):
    """Design-space sweep of warm ``simulate_network`` queries.

    Set-up collects the ci traces of the five denoisers into the run's
    empty cache; the memos are then dropped, so the timed phase starts in
    the warm-disk, cold-memo state of a ``regression check`` process.

    Rounds hold one query per model.  Each model's own stream walks its
    axes in nested loops: resolution outermost, then scheme (in the fixed
    order of :data:`SCHEMES`, whose costs differ several-fold), then every
    accelerator in turn, the memory node drawn per op.  No query repeats,
    but each (model, scheme, resolution) traffic key recurs once per
    accelerator and each (model, accelerator) cycle key once per scheme
    and resolution — the sharing pattern of the paper's figure sweeps.
    """

    name = "grid"
    clear_memos_after_setup = True
    interpreter_bound = True
    reference_size = 150
    peak_rss_ops = 60

    def setup(self) -> None:
        from repro.arch.sim import collect_traces

        for model in MODELS:
            collect_traces(model, count=CI_TRACE_COUNT, crop=CI_CROP)

    def _model_stream(self, rng: np.random.Generator, model: str) -> Iterator[tuple]:
        from repro.utils.rng import DEFAULT_SEED

        for r in rng.permutation(len(RESOLUTIONS)):
            for scheme in SCHEMES:
                for a in rng.permutation(len(ACCELERATORS)):
                    memory = MEMORIES[int(rng.integers(len(MEMORIES)))]
                    yield (model, ACCELERATORS[a], scheme, memory,
                           RESOLUTIONS[r], DEFAULT_SEED)

    def ops(self, seed: Optional[int] = None) -> Iterator[Op]:
        seed = self.seed if seed is None else seed
        streams = [self._model_stream(_rng(seed, 10 + i), m) for i, m in enumerate(MODELS)]
        order_rng = _rng(seed, 1)
        while True:
            for i in order_rng.permutation(len(MODELS)):
                yield Op("simulate", next(streams[i]))

    def reuse(self, ops: "list[Op]") -> dict:
        """Share of queries whose traffic / cycle key appeared earlier."""
        traffic = [(a[0], a[2], a[4]) for a in (op.args for op in ops)]
        cycles = [(a[0], a[1]) for a in (op.args for op in ops)]
        n = len(ops) or 1
        return {
            "traffic_key_repeat_share": (len(traffic) - len(set(traffic))) / n,
            "cycle_key_repeat_share": (len(cycles) - len(set(cycles))) / n,
        }


class FreshWorkload(SimulateWorkload):
    """New-seed first results: ``simulate_network(model, "Diffy")``.

    Every op uses a seed no earlier op used, against the run's empty
    disk cache, so it synthesizes images, calibrates the model, traces
    the crops and stores all three.  Every op runs the same model: a run
    fits only a handful of ops, and a mix of models would make its
    throughput depend on where the run's last op falls.  The seed draws
    the op seeds.  No input repeats.
    """

    name = "fresh"
    item = "traced conv layer"
    reference_size = 4
    peak_rss_ops = 4
    MODEL = "IRCNN"

    def ops(self, seed: Optional[int] = None) -> Iterator[Op]:
        seed = self.seed if seed is None else seed
        rng = _rng(seed, 2)
        used: "set[int]" = set()
        while True:
            op_seed = int(rng.integers(1, 2**31 - 1))
            while op_seed in used:
                op_seed = int(rng.integers(1, 2**31 - 1))
            used.add(op_seed)
            yield Op("simulate", (self.MODEL, "Diffy", "DeltaD16", "DDR4-3200",
                                  RESOLUTIONS[0], op_seed))

    def items(self, op: Op, out) -> int:
        return len(out.layers) * CI_TRACE_COUNT

    def reuse(self, ops: "list[Op]") -> dict:
        seeds = [op.args[5] for op in ops]
        n = len(seeds) or 1
        return {"input_repeat_share": (len(seeds) - len(set(seeds))) / n}


# ---- serve -------------------------------------------------------------

SERVE_MODEL = "IRCNN"
SERVE_ENGINES = ("VAA", "PRA", "Diffy")
LOAD_FACTORS = (0.5, 1.0, 1.5, 2.0)
WORKERS = 2
FLEET_NODES = 4
FRAMES_PER_SESSION = 6
#: Requests per op by (path, option), sized so every op takes similar
#: host time (about a quarter second on a 2-core x86 host): a run's
#: median and tail then sit inside one cluster of op costs whatever order
#: the seed picks.  The shard engine costs more per request than the DES,
#: and chaos and the calibration loop cost more than plain serving.
REQUESTS = {
    ("des", "plain"): 15000, ("des", "weight_stream"): 15000,
    ("des", "chaos"): 10000, ("des", "calib"): 1700,
    ("fleet", "plain"): 3750, ("fleet", "weight_stream"): 3750,
    ("fleet", "chaos"): 2800, ("fleet", "calib"): 1000,
}
#: Options an op carries on top of plain serving; a round is one op per
#: (path, option), and the engine rotates across ops.
SERVE_OPTIONS = ("plain", "chaos", "calib", "weight_stream")
CHAOS_LADDER = ("ecc", "flip1", 1e-4)


@dataclass(frozen=True)
class ServeOp:
    path: str  # "des" | "fleet"
    engine: str
    load: float
    option: str
    routing: str = "state_aware"
    diurnal: bool = False
    seed: int = 0


class ServeWorkload(Workload):
    """Seeded serving runs on the DES and on the fleet shard engine.

    ``measure_service_times`` prices the three engines in set-up, which
    also fills the disk cache with the chaos ladder pricing and the
    calibration statistics the ops read.  A round is eight ops, one per
    (path, option) with option plain, chaos, calibration or compressed
    weight stream, in seeded order.  Engine, load factor, fleet routing
    and load profile rotate with the round and the cell, so every run
    has the same mix; the seed draws the order and each op's arrivals.
    """

    name = "serve"
    item = "simulated request"
    interpreter_bound = True
    reference_size = 48
    peak_rss_ops = 24

    def setup(self) -> None:
        from repro.calib.stats import collect_calib_stats
        from repro.serve.chaos.storage import price_ladder
        from repro.serve.latency import measure_service_times

        self.times = measure_service_times(SERVE_MODEL, engines=SERVE_ENGINES, crop=CI_CROP)
        ladder, fault, rate = CHAOS_LADDER
        price_ladder(ladder, fault, rate)
        collect_calib_stats(SERVE_MODEL, crop=CI_CROP)

    def ops(self, seed: Optional[int] = None) -> Iterator[Op]:
        seed = self.seed if seed is None else seed
        rng = _rng(seed, 3)
        cells = [(p, o) for p in ("des", "fleet") for o in SERVE_OPTIONS]
        for r in count():
            for c in rng.permutation(len(cells)):
                path, option = cells[c]
                k = r + int(c)
                op = ServeOp(
                    path=path,
                    engine=SERVE_ENGINES[k % len(SERVE_ENGINES)],
                    load=LOAD_FACTORS[k % len(LOAD_FACTORS)],
                    option=option,
                    routing=("state_aware", "hash")[k // 2 % 2],
                    diurnal=bool(k % 2),
                    seed=int(rng.integers(1, 2**31 - 1)),
                )
                yield Op(path, (op,))

    def _spec(self, op: ServeOp):
        from repro.serve.workload import WorkloadSpec

        unit = self.times[op.engine].cold_s
        nodes = 1 if op.path == "des" else FLEET_NODES
        offered = op.load * nodes * WORKERS / unit
        # A lightly loaded service batches less and costs more host time
        # per request; scaling the stream with the load evens op costs.
        requests = int(REQUESTS[op.path, op.option] * (0.5 + op.load) / 1.5)
        return unit, WorkloadSpec(
            duration_s=requests / offered,
            session_rate=offered / FRAMES_PER_SESSION,
            frames_per_session=FRAMES_PER_SESSION,
            frame_interval_s=2.0 * unit,
            seed=op.seed,
        )

    def _requests(self, op: ServeOp, spec):
        from repro.serve.workload import (
            apply_scene_dynamics,
            generate_diurnal_requests,
            generate_requests,
            generate_vfr_requests,
        )

        if op.option == "calib":
            return generate_vfr_requests(spec, switch_probability=0.15, seed=op.seed)
        if op.path == "fleet" and op.diurnal:
            return generate_diurnal_requests(spec, amplitude=0.8, period_s=spec.duration_s / 2)
        requests = generate_requests(spec)
        if op.option == "chaos":
            requests = apply_scene_dynamics(
                requests, cut_probability=0.02, burst_probability=0.05, seed=op.seed
            )
        return requests

    def _calib(self, spec, unit: float):
        from repro.calib.recalibrate import CalibSpec
        from repro.data.synthesis import generate_drift_schedule

        return CalibSpec(
            model=SERVE_MODEL,
            # One drift scenario for every op: its event timing sets how
            # often the loop recalibrates, which dominates the op's cost.
            schedule=generate_drift_schedule(spec.duration_s, 2.0),
            crop=CI_CROP,
            recalib_delay_s=4.0 * unit,
        )

    def run(self, op: Op):
        from repro.serve.chaos.schedule import ChaosSpec
        from repro.serve.chaos.storage import StorageChaos, price_ladder
        from repro.serve.fleet import FleetConfig, simulate_fleet
        from repro.serve.fleet.autoscale import AutoscalePolicy
        from repro.serve.service import ServeConfig, serve_workload

        (sop,) = op.args
        times = self.times[sop.engine]
        unit, spec = self._spec(sop)
        requests = self._requests(sop, spec)
        node = ServeConfig(
            workers=WORKERS,
            max_batch=4,
            max_wait_s=0.5 * unit if sop.path == "des" else 0.0,
            queue_capacity=16,
            deadline_s=4.0 * unit,
            state_capacity_bytes=16 * times.state_bytes,
            weight_stream_s=(
                0.5 * times.batch_overhead_s if sop.option == "weight_stream" else None
            ),
        )
        ladder, fault, rate = CHAOS_LADDER
        if sop.path == "des":
            storage = calib = None
            if sop.option == "chaos":
                storage = StorageChaos(seed=sop.seed, base=price_ladder(ladder, fault, rate))
            if sop.option == "calib":
                calib = self._calib(spec, unit).build()
            report = serve_workload(
                requests, times, node, spec.duration_s, storage=storage, calib=calib
            )
            return requests, report
        config = FleetConfig(
            nodes=FLEET_NODES,
            routing=sop.routing,
            node=node,
            session_ttl_s=(2.0 * FRAMES_PER_SESSION + 8.0) * unit,
            autoscale=(
                AutoscalePolicy(
                    min_nodes=1,
                    max_nodes=2 * FLEET_NODES,
                    eval_interval_s=4.0 * unit,
                    target_rps_per_node=WORKERS / unit,
                )
                if sop.diurnal
                else None
            ),
            chaos=(
                ChaosSpec(
                    storage_rate=rate,
                    fault_model=fault,
                    protection=ladder,
                    crashes=1,
                    crash_downtime_s=4.0 * unit,
                    degrades=1,
                    degrade_len_s=6.0 * unit,
                    seed=sop.seed,
                )
                if sop.option == "chaos"
                else None
            ),
            calib=self._calib(spec, unit) if sop.option == "calib" else None,
            seed=sop.seed,
        )
        report = simulate_fleet(requests, times, config, spec.duration_s, max_workers=0)
        return requests, report

    def items(self, op: Op, out) -> int:
        return len(out[0])

    def check(self, op: Op, out) -> "list[str]":
        requests, report = out
        m = report.metrics
        offered = len(requests)
        shed = m["shed_queue_full"] + m["shed_deadline"]
        lost = 0
        chaos = getattr(report, "chaos", None)
        if chaos is not None:
            lost = chaos["crash_shed"] + chaos["killed_in_flight"]
        errors = []
        if m["arrived"] != offered:
            errors.append(f"arrived {m['arrived']} != offered {offered}")
        if offered != m["completed"] + shed + lost:
            errors.append(
                f"offered {offered} != served {m['completed']} + shed {shed} + lost {lost}"
            )
        if report.warm_served + report.cold_served != m["completed"] + (
            chaos["killed_in_flight"] if chaos is not None else 0
        ):
            errors.append(
                f"warm {report.warm_served} + cold {report.cold_served} "
                f"!= served {m['completed']}"
            )
        return errors

    def reuse(self, ops: "list[Op]") -> dict:
        n = len(ops) or 1
        return {"des_share": sum(op.kind == "des" for op in ops) / n,
                "fleet_share": sum(op.kind == "fleet" for op in ops) / n}


# ---- codec -------------------------------------------------------------

CODEC_MODEL = "IRCNN"
CODEC_CROP = 96
CODEC_DATASET = "Kodak24"
#: Small maps are slices of this many channels of one traced imap.
SMALL_MAP_CHANNELS = 16
#: Large maps concatenate this many consecutive imaps along channels.
LARGE_MAP_LAYERS = 4
#: Models whose INT8 weights feed the MSR ops (similar weight counts).
WEIGHT_MODELS = ("DnCNN", "FFDNet", "JointNet", "VDSR")
#: ``repro.compression.bitplane``'s scatter/gather index budget: a width
#: class of a GroupCodec stream whose payload bits exceed it is split into
#: several chunks.
CHUNK_BUDGET = 1 << 22
#: Small maps per op, by codec, so that every small op costs about the
#: same host time (a sixth of a large op on a 2-core x86 host).
SMALL_BATCH = {"group": 3, "group_crc": 3, "rlez": 6, "protect": 1}
#: One round: five small ops and three large ones.  With costs in two
#: tight clusters, the median falls inside the small cluster and the
#: 75th percentile inside the large one.
CODEC_ROUND = (
    ("group", False), ("group_crc", False), ("rlez", False), ("protect", False),
    ("msr", False), ("group", True), ("group_crc", True), ("protect", True),
)


def largest_width_class_bits(deltas: np.ndarray) -> int:
    """Payload bits of the widest-spread width class of a DeltaD16 stream."""
    from repro.core.precision import group_precisions

    widths = np.asarray(group_precisions(deltas, 16, signed=True).precisions)
    return max(int((widths == w).sum()) * 16 * int(w) for w in np.unique(widths))


@dataclass
class CodecInputs:
    maps: "list[np.ndarray]" = field(default_factory=list)
    deltas: "list[np.ndarray]" = field(default_factory=list)
    weights: "list[np.ndarray]" = field(default_factory=list)


class CodecWorkload(Workload):
    """Encode+decode round trips of real traced maps, default backend.

    Set-up traces the codec model on two crops and builds the map pool:
    channel slices of each traced imap, which the GroupCodec encodes in
    one chunk, and channel-concatenations of consecutive imaps, which it
    must split because a width class exceeds the chunk budget; their
    DeltaD16 streams; and the INT8 weights of four denoisers.  A small op
    round-trips a batch of small maps (through the full protection ladder
    for ``protect``), a large op one large map (word ECC for
    ``protect``), an MSR op one model's weights.
    """

    name = "codec"
    item = "encoded+decoded value"
    reference_size = 40
    peak_rss_ops = 24

    def setup(self) -> None:
        from repro.arch.sim import collect_traces
        from repro.compression.schemes import planar_order
        from repro.core.deltas import spatial_deltas
        from repro.models.registry import build_model
        from repro.weights import network_int8_weights

        traces = collect_traces(CODEC_MODEL, CODEC_DATASET, count=2, crop=CODEC_CROP)
        imaps = [
            np.asarray(layer.imap, dtype=np.int64)
            for t in traces for layer in t if layer.imap.shape[0] >= SMALL_MAP_CHANNELS
        ]
        small = [
            m[c:c + SMALL_MAP_CHANNELS]
            for m in imaps for c in range(0, m.shape[0], SMALL_MAP_CHANNELS)
        ]
        large = [
            np.concatenate(imaps[i:i + LARGE_MAP_LAYERS], axis=0)
            for i in range(0, len(imaps) - LARGE_MAP_LAYERS + 1, 2)
        ]
        inputs = CodecInputs()
        inputs.maps = small + large
        inputs.deltas = [planar_order(spatial_deltas(m, axis="x")) for m in inputs.maps]
        for model in WEIGHT_MODELS:
            table = network_int8_weights(build_model(model))
            inputs.weights.append(np.concatenate([w.reshape(-1) for w, _ in table.values()]))
        chunked = [largest_width_class_bits(d) > CHUNK_BUDGET for d in inputs.deltas]
        self.inputs = inputs
        self.small = [i for i in range(len(small)) if not chunked[i]]
        self.large = [i for i in range(len(small), len(chunked)) if chunked[i]]
        if not self.small or not self.large:
            raise RuntimeError("codec map pool must hold maps on both sides of the budget")

    def ops(self, seed: Optional[int] = None) -> Iterator[Op]:
        seed = self.seed if seed is None else seed
        rng = _rng(seed, 4)
        k = 0
        while True:
            for c in rng.permutation(len(CODEC_ROUND)):
                kind, big = CODEC_ROUND[c]
                if kind == "msr":
                    index = k % len(WEIGHT_MODELS)
                    k += 1
                    yield Op(kind, (False, index), int(self.inputs.weights[index].size))
                    continue
                if big:
                    picks = (self.large[int(rng.integers(len(self.large)))],)
                else:
                    picks = tuple(int(i) for i in rng.choice(
                        self.small, SMALL_BATCH[kind], replace=False))
                values = sum(int(self.inputs.maps[i].size) for i in picks)
                yield Op(kind, (big, *picks), values)

    def originals(self, op: Op) -> "list[np.ndarray]":
        if op.kind == "msr":
            return [self.inputs.weights[op.args[1]]]
        if op.kind == "protect":
            return [self.inputs.maps[i] for i in op.args[1:]]
        if op.kind == "rlez":
            return [self.inputs.maps[i].reshape(-1) for i in op.args[1:]]
        return [self.inputs.deltas[i] for i in op.args[1:]]

    def run(self, op: Op) -> "list[np.ndarray]":
        from repro.compression.codec import GroupCodec, RLEZeroCodec
        from repro.protect import protection_policy, read_protected, store_protected
        from repro.weights import MSRCodec

        if op.kind == "protect":
            policy = protection_policy("ecc" if op.args[0] else "full")
            return [read_protected(store_protected(values, policy))[0]
                    for values in self.originals(op)]
        if op.kind == "msr":
            codec = MSRCodec(bits=8, max_msr=4, column_size=256)
        elif op.kind == "rlez":
            codec = RLEZeroCodec()
        else:
            codec = GroupCodec(16, signed=True, checksum=op.kind == "group_crc")
        return [codec.decode(codec.encode(values)) for values in self.originals(op)]

    def check(self, op: Op, out) -> "list[str]":
        originals = self.originals(op)
        if len(out) != len(originals):
            return [f"{op.kind}: {len(out)} outputs for {len(originals)} inputs"]
        errors = []
        for original, decoded in zip(originals, out):
            decoded = np.asarray(decoded)
            if decoded.shape != original.shape or not np.array_equal(decoded, original):
                errors.append(f"{op.kind} round trip is not byte-identical")
        return errors

    def reuse(self, ops: "list[Op]") -> dict:
        """Share of round-tripped maps above the chunk budget."""
        maps = [op for op in ops if op.kind != "msr"]
        total = sum(len(op.args) - 1 for op in maps) or 1
        return {"above_chunk_budget_share": sum(op.args[0] for op in maps) / total}


WORKLOADS = {
    cls.name: cls for cls in (GridWorkload, FreshWorkload, ServeWorkload, CodecWorkload)
}

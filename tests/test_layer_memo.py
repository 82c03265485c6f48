"""The per-layer memo: cycle records and value ranges computed once per key."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import term_maps
from repro.arch.config import DIFFY_CONFIG, PRA_CONFIG, VAA_CONFIG
from repro.arch.diffy import DiffyModel
from repro.arch.pra import PRAModel
from repro.arch.predict import ValuePredictionModel
from repro.arch.scnn import SCNNModel
from repro.arch.sim import _mean_layer_cycles, collect_traces, model_for, simulate_network
from repro.arch.vaa import VAAModel
from repro.cache import clear_memory_caches
from repro.compression.footprint import imap_precisions, omap_precisions
from repro.core.precision import profiled_precision
from repro.nn.memo import memo_stats, reset_memo_stats


def computed(kind: str) -> int:
    return memo_stats().get(kind, {}).get("computed", 0)


def reused(kind: str) -> int:
    return memo_stats().get(kind, {}).get("reused", 0)


@pytest.fixture
def fresh_memo():
    clear_memory_caches()
    reset_memo_stats()
    yield
    clear_memory_caches()
    reset_memo_stats()


@pytest.fixture(scope="module")
def tiny_traces(tiny_network):
    net, imgs = tiny_network
    return tuple(net.trace(img) for img in imgs)


#: Each model differs from the first of its class in exactly one parameter.
MODEL_VARIANTS = [
    lambda: VAAModel(),
    lambda: VAAModel(replace(VAA_CONFIG, tiles=2)),
    lambda: PRAModel(),
    lambda: PRAModel(replace(PRA_CONFIG, sync="lane")),
    lambda: DiffyModel(),
    lambda: DiffyModel(axis="y"),
    lambda: DiffyModel(replace(DIFFY_CONFIG, terms_per_filter=8)),
    lambda: ValuePredictionModel(),
    lambda: ValuePredictionModel(threshold=4),
    lambda: ValuePredictionModel(recovery_cycles=5),
    lambda: ValuePredictionModel(enabled=False),
    lambda: ValuePredictionModel(axis="y"),
    lambda: ValuePredictionModel(DIFFY_CONFIG),
    lambda: SCNNModel(),
    lambda: SCNNModel(weight_sparsity=0.5),
    lambda: SCNNModel(weight_sparsity=0.5, seed=1),
]


class TestCycleMemoKey:
    def test_models_differing_in_one_parameter_never_share_an_entry(self, tiny_traces, fresh_memo):
        layers = sum(len(t) for t in tiny_traces)
        for i, make in enumerate(MODEL_VARIANTS):
            _mean_layer_cycles(make(), tiny_traces)
            assert computed("cycles") == (i + 1) * layers, i
        # A fresh instance with equal parameters is served from the memo.
        for make in MODEL_VARIANTS:
            _mean_layer_cycles(make(), tiny_traces)
        assert computed("cycles") == len(MODEL_VARIANTS) * layers
        assert reused("cycles") == len(MODEL_VARIANTS) * layers

    @pytest.mark.parametrize("index", range(len(MODEL_VARIANTS)))
    def test_memoized_records_equal_direct_calls(self, tiny_traces, fresh_memo, index):
        model = MODEL_VARIANTS[index]()
        for _ in range(2):  # computed, then served from the memo
            means = _mean_layer_cycles(model, tiny_traces)
            for i, mean in enumerate(means):
                direct = [model.layer_cycles(t[i]) for t in tiny_traces]
                assert mean.name == direct[0].name
                assert mean.windows == direct[0].windows
                assert mean.cycles == np.mean([r.cycles for r in direct])
                assert mean.useful_terms == np.mean([r.useful_terms for r in direct])
                assert mean.lane_capacity == np.mean([r.lane_capacity for r in direct])
                assert mean.filter_occupancy == direct[0].filter_occupancy
                assert mean.channel_occupancy == direct[0].channel_occupancy


class TestValueRangeMemo:
    def test_precisions_unchanged_and_ranges_computed_once(self, tiny_traces, fresh_memo):
        layers = sum(len(t) for t in tiny_traces)
        first = imap_precisions(tiny_traces), omap_precisions(tiny_traces)
        again = imap_precisions(tiny_traces), omap_precisions(tiny_traces)
        assert first == again
        assert computed("range") == 2 * layers
        assert reused("range") == 2 * layers
        for which, precs in zip(("imap", "omap"), first):
            for i, p in enumerate(precs):
                maps = [getattr(t[i], which) for t in tiny_traces]
                signed = any(m.min() < 0 for m in maps)
                assert p == profiled_precision(maps, signed=signed)

    def test_tolerant_profile_bypasses_the_memo(self, tiny_traces, fresh_memo):
        imap_precisions(tiny_traces, exact=False)
        assert computed("range") == 0


class TestLoweringStats:
    def test_counts_lowering_artifacts_only(self, tiny_traces, fresh_memo):
        _mean_layer_cycles(model_for("Diffy"), tiny_traces)
        imap_precisions(tiny_traces)
        stats = memo_stats()
        assert stats["cycles"]["computed"] and stats["range"]["computed"]
        lowering = [s for kind, s in stats.items() if kind not in ("cycles", "range")]
        assert lowering
        assert term_maps.lowering_stats() == {
            "computed": sum(s["computed"] for s in lowering),
            "reused": sum(s["reused"] for s in lowering),
        }


#: A Fig 15-shaped sweep: 1 model x 4 accelerators x 3 schemes x 3 memories.
SWEEP_MODEL = "IRCNN"
SWEEP_ACCELERATORS = ("VAA", "PRA", "Diffy", "VP")
SWEEP_SCHEMES = ("NoCompression", "Profiled", "DeltaD16")
SWEEP_MEMORIES = ("LPDDR3-1600", "DDR4-3200", "Ideal")
SWEEP_KW = dict(trace_count=2, crop=32)


class TestSweepComputeCounts:
    def test_each_distinct_key_computed_once_and_clear_drops_both(self, fresh_memo):
        traces = collect_traces(SWEEP_MODEL, count=SWEEP_KW["trace_count"], crop=SWEEP_KW["crop"])
        layers = sum(len(t) for t in traces)
        cells = 0
        for accelerator in SWEEP_ACCELERATORS:
            for scheme in SWEEP_SCHEMES:
                for memory in SWEEP_MEMORIES:
                    simulate_network(
                        SWEEP_MODEL, accelerator, scheme=scheme, memory=memory, **SWEEP_KW
                    )
                    cells += 1
        # Scheme and memory never change the cycle model: one compute per
        # (layer, accelerator); the maps' ranges depend on the layer alone.
        assert computed("cycles") == len(SWEEP_ACCELERATORS) * layers
        assert computed("cycles") + reused("cycles") == cells * layers
        assert computed("range") == 2 * layers
        assert computed("range") + reused("range") == 2 * cells * layers

        clear_memory_caches()
        reset_memo_stats()
        _mean_layer_cycles(model_for("Diffy"), traces)
        imap_precisions(traces)
        omap_precisions(traces)
        assert computed("cycles") == layers
        assert computed("range") == 2 * layers

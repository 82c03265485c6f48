"""In-memory span recorder for the traced benchmark run.

A traced run wraps the public entry point of each layer in a recording
shim (see :data:`PROBES`).  Every call appends one span — name, start,
end, parent — to a flat list that is written out as JSON when the run
ends.  Nothing under ``src/`` changes: the shims are installed on the
imported modules and classes, and removed again by :meth:`Recorder.uninstall`.

A layer's self time is its span's duration minus the time its direct
child spans cover.  The benchmark opens one root span per operation
(``op``) and one for set-up (``setup``); the root's own self time is the
part of the operation no layer span covers, reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: Span name -> (module, attribute) of the entry points it wraps.  A dotted
#: attribute names a method on a class.  Names follow the repository's
#: package layout so a layer metric reads as ``<package>.<what>``.
PROBES: "dict[str, tuple[tuple[str, str], ...]]" = {
    "arch.simulate": (("repro.arch.sim", "simulate_network"),),
    "arch.layer_cycles": (("repro.arch.sim", "_mean_layer_cycles"),),
    "core.group_precisions": (("repro.core.precision", "group_precisions"),),
    "compression.traffic": (("repro.compression.traffic", "network_traffic"),),
    "compression.precisions": (
        ("repro.compression.footprint", "imap_precisions"),
        ("repro.compression.footprint", "omap_precisions"),
    ),
    "compression.encode": (
        ("repro.compression.codec", "GroupCodec.encode"),
        ("repro.compression.codec", "RLEZeroCodec.encode"),
    ),
    "compression.decode": (
        ("repro.compression.codec", "GroupCodec.decode"),
        ("repro.compression.codec", "RLEZeroCodec.decode"),
    ),
    "weights.msr_encode": (("repro.weights.msr", "MSRCodec.encode"),),
    "weights.msr_decode": (("repro.weights.msr", "MSRCodec.decode"),),
    "protect.store": (("repro.protect.stream", "store_protected"),),
    "protect.read": (("repro.protect.stream", "read_protected"),),
    "data.synthesize": (("repro.data.datasets", "Dataset.crop"),),
    "models.prepare": (("repro.models.registry", "prepare_model"),),
    "nn.trace": (("repro.nn.network", "Network.trace"),),
    "cache.store": (("repro.cache.store", "_store"),),
    "serve.generate": (
        ("repro.serve.workload", "generate_requests"),
        ("repro.serve.workload", "generate_diurnal_requests"),
        ("repro.serve.workload", "generate_vfr_requests"),
        ("repro.serve.workload", "apply_scene_dynamics"),
    ),
    "serve.des": (("repro.serve.service", "serve_workload"),),
    "serve.measure_times": (("repro.serve.latency", "measure_service_times"),),
    "fleet.route": (("repro.serve.fleet.service", "route_requests"),),
    "fleet.shards": (("repro.serve.fleet.service", "simulate_fleet"),),
}


def _traffic_key(network, traces, compression, height, width, *rest, **kwargs):
    scheme = compression if isinstance(compression, str) else compression.name
    weight_scheme = kwargs.get("weight_scheme", rest[2] if len(rest) > 2 else None)
    return (id(traces), scheme, height, width, weight_scheme)


def _cycles_key(model, traces):
    return (model.name, repr(model.config), id(traces))


#: Spans whose call arguments are also recorded as a content key, for the
#: unique-input ratios.  Traces are keyed by identity: the program keeps
#: one trace tuple per (model, seed, crop, count) alive in its memo, and
#: the recorder pins every keyed tuple so an id is never reused.
KEYED = {
    "compression.traffic": (_traffic_key, 1),
    "arch.layer_cycles": (_cycles_key, 1),
}


class Recorder:
    """Flat list of ``[name, start, end, parent]`` spans, one thread."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.keys: "dict[str, list]" = defaultdict(list)
        self._stack: "list[int]" = []
        self._pinned: "list[Any]" = []
        self._installed: "list[tuple[Any, str, Any]]" = []

    # ---- recording -------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        keyed = KEYED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed is not None:
                key_fn, pin_arg = keyed
                self.keys[name].append(key_fn(*args, **kwargs))
                self._pinned.append(args[pin_arg])
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            traced.cache_clear = clear
        return traced

    # ---- installation ----------------------------------------------------

    def install(self, probes: "dict[str, tuple[tuple[str, str], ...]]" = PROBES) -> None:
        """Wrap every probed entry point, wherever it has been imported."""
        for name, targets in probes.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._replace(cls, meth, original, self.wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._replace(loaded, key, original, wrapper)

    def _replace(self, owner: Any, key: str, original: Any, wrapper: Any) -> None:
        setattr(owner, key, wrapper)
        self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # ---- reduction -------------------------------------------------------

    def roots(self) -> "list[int]":
        """Index of each span's root span."""
        root = []
        for i, (_name, _start, _end, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def self_times(self, root_name: str) -> "tuple[dict[str, float], dict[str, int], float]":
        """Per-name self time and call count under roots called ``root_name``.

        Also returns the summed duration of those roots.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        roots = self.roots()
        self_s: "dict[str, float]" = defaultdict(float)
        calls: "dict[str, int]" = defaultdict(int)
        root_total = 0.0
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if self.spans[roots[i]][0] != root_name:
                continue
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if roots[i] == i:
                root_total += end - start
        return dict(self_s), dict(calls), root_total

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def span_cost_s(samples: int = 20000) -> float:
    """Measured host cost of recording one span, per call."""
    recorder = Recorder()

    def noop() -> None:
        return None

    wrapped = recorder.wrap("calibration", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        recorder.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)


def unique_ratio(keys: "Optional[list]") -> float:
    """Distinct keys over calls (1.0 when every input is new)."""
    return len(set(keys)) / len(keys) if keys else 0.0

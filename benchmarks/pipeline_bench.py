"""Warm golden-check seconds per experiment, and the per-layer memo's counts.

Runs the selected golden experiments (default: all registered) at the
``ci`` profile twice in one process, against a fresh temporary disk cache:

1. a **cold** pass that fills the disk cache;
2. after ``clear_memory_caches()``, a **warm** pass — the work a warm
   ``python -m repro.regression check`` does — timed per experiment.

During the warm pass it counts, for the two memos that make sweeps
déjà-vu-free, the memo's computes and calls (``repro.nn.memo.memo_stats``)
and, independently, the distinct keys the program asked for: each
``_mean_layer_cycles(model, traces)`` call asks for one (layer, model
parameters) cycle record per traced layer — the parameters read off the
model's constructor signature, not the memo's own key, so a memo key
that left out a parameter would compute fewer records than distinct
keys — and each exact
``imap_precisions``/``omap_precisions`` call for one (layer, map) value
range per layer.  Traces are pinned for the pass, so a layer id is never
reused.

Gates (deterministic, so safe on noisy shared runners; seconds are only
recorded): for both memos ``computed == distinct keys`` — no key is
computed twice and none is skipped — and every experiment's warm result
is byte-identical to its cold result.  Results land in
``BENCH_pipeline.json``.

Usage::

    python benchmarks/pipeline_bench.py [ids ...] [--out FILE] [--json]
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.arch import sim  # noqa: E402
from repro.cache import clear_memory_caches  # noqa: E402
from repro.compression import footprint  # noqa: E402
from repro.experiments.profiles import resolve_profile  # noqa: E402
from repro.nn.memo import memo_stats, reset_memo_stats  # noqa: E402
from repro.regression.registry import select_specs  # noqa: E402
from repro.regression.serialize import canonical_dumps, to_jsonable  # noqa: E402


def model_parameters(model) -> tuple:
    """A cycle model's class and the value of every constructor parameter."""
    names = inspect.signature(type(model)).parameters
    return (type(model), *((name, getattr(model, name)) for name in names))


class KeyCounter:
    """Distinct memo keys requested through the memoized entry points."""

    def __init__(self) -> None:
        self.keys: dict[str, set] = {"cycles": set(), "range": set()}
        self._pinned: list = []
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, module, name: str, make) -> None:
        """Replace ``module.name`` wherever a module imported it by name."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                self._patched.append((mod, name, original))

    def install(self) -> None:
        def cycles(original):
            def wrapper(model, traces):
                self._pinned.append(traces)
                model_key = model_parameters(model)
                self.keys["cycles"].update((id(layer), model_key) for t in traces for layer in t)
                return original(model, traces)

            return wrapper

        def ranges(which):
            def make(original):
                def wrapper(traces, exact=True):
                    if exact:
                        self._pinned.append(traces)
                        self.keys["range"].update((id(layer), which) for t in traces for layer in t)
                    return original(traces, exact)

                return wrapper

            return make

        self._patch(sim, "_mean_layer_cycles", cycles)
        self._patch(footprint, "imap_precisions", ranges("imap"))
        self._patch(footprint, "omap_precisions", ranges("omap"))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()
        self._pinned.clear()


def run_pass(specs, profile) -> tuple[dict[str, float], dict[str, str]]:
    seconds, documents = {}, {}
    for exp_id, spec in specs.items():
        start = time.perf_counter()
        documents[exp_id] = canonical_dumps(to_jsonable(spec.compute(profile)))
        seconds[exp_id] = round(time.perf_counter() - start, 3)
    return seconds, documents


def bench(ids: list[str]) -> dict:
    profile = resolve_profile("ci")
    specs = select_specs(ids)
    if not specs:
        raise SystemExit(f"no experiment matches {ids}")
    cold_s, cold_docs = run_pass(specs, profile)

    clear_memory_caches()
    reset_memo_stats()
    counter = KeyCounter()
    counter.install()
    try:
        warm_s, warm_docs = run_pass(specs, profile)
    finally:
        stats = memo_stats()
        distinct = {kind: len(keys) for kind, keys in counter.keys.items()}
        counter.uninstall()

    memo = {}
    for kind, keys in distinct.items():
        counts = stats.get(kind, {"computed": 0, "reused": 0})
        memo[kind] = {
            "calls": counts["computed"] + counts["reused"],
            "computed": counts["computed"],
            "distinct_keys": keys,
        }
    changed = sorted(exp_id for exp_id in specs if warm_docs[exp_id] != cold_docs[exp_id])
    return {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "profile": profile.name,
        "experiments": {
            exp_id: {"cold_s": cold_s[exp_id], "warm_s": warm_s[exp_id]} for exp_id in specs
        },
        "cold_s": round(sum(cold_s.values()), 3),
        "warm_s": round(sum(warm_s.values()), 3),
        "memo": memo,
        "warm_differs_from_cold": changed,
        "ok": not changed and all(m["computed"] == m["distinct_keys"] for m in memo.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="experiment id substrings (default: all)")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_pipeline.json"),
        help="where to write the result JSON",
    )
    parser.add_argument("--json", action="store_true", help="print the result JSON to stdout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-pipeline-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        result = bench(args.ids)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for exp_id, row in result["experiments"].items():
            print(f"{exp_id:14s} cold {row['cold_s']:7.2f} s  warm {row['warm_s']:7.2f} s")
        print(f"{'total':14s} cold {result['cold_s']:7.2f} s  warm {result['warm_s']:7.2f} s")
        for kind, m in result["memo"].items():
            print(
                f"memo {kind:6s}: {m['calls']} calls, {m['computed']} computed, "
                f"{m['distinct_keys']} distinct keys"
            )
    if result["warm_differs_from_cold"]:
        print(f"FAIL: warm results differ from cold: {result['warm_differs_from_cold']}")
    if any(m["computed"] != m["distinct_keys"] for m in result["memo"].values()):
        print("FAIL: a memo computed a different number of entries than distinct keys")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

They cover generator determinism, that every output check fails on a
deliberately corrupted output, and a one-second run of every workload
in both modes that must print every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    CodecWorkload,
    FreshWorkload,
    GridWorkload,
    Op,
    ServeWorkload,
    check_network_result,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def _private_cache(tmp_path_factory):
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("perfbench-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="module")
def codec():
    workload = CodecWorkload(5)
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def serve():
    workload = ServeWorkload(5)
    workload.setup()
    return workload


# ---- generators ----------------------------------------------------------


@pytest.mark.parametrize("cls", [GridWorkload, FreshWorkload, ServeWorkload])
def test_generator_is_deterministic_per_seed(cls):
    first = list(islice(cls(7).ops(), 40))
    assert first == list(islice(cls(7).ops(), 40))
    assert first != list(islice(cls(8).ops(), 40))


def test_codec_generator_is_deterministic_per_seed(codec):
    first = list(islice(codec.ops(3), 40))
    assert first == list(islice(codec.ops(3), 40))
    assert first != list(islice(codec.ops(4), 40))
    share = codec.reuse(first)["above_chunk_budget_share"]
    assert 0.1 < share < 0.3
    for op in first:
        if op.kind in ("group", "group_crc"):
            for deltas in codec.originals(op):
                chunked = workloads.largest_width_class_bits(deltas) > workloads.CHUNK_BUDGET
                assert chunked == op.args[0]


def test_grid_queries_never_repeat_but_keys_do():
    ops = list(islice(GridWorkload(3).ops(), 1000))
    assert len({op.args for op in ops}) == len(ops)
    reuse = GridWorkload(3).reuse(ops[:150])
    assert reuse["traffic_key_repeat_share"] > 0.5
    assert reuse["cycle_key_repeat_share"] > 0.5


def test_fresh_seeds_never_repeat():
    ops = list(islice(FreshWorkload(3).ops(), 200))
    assert FreshWorkload(3).reuse(ops) == {"input_repeat_share": 0.0}


def test_reference_set_is_seed_independent():
    a, b = GridWorkload(1).reference_ops(), GridWorkload(2).reference_ops()
    assert a != b
    assert sorted(map(repr, a)) == sorted(map(repr, b))


# ---- checks fail on corrupted outputs --------------------------------------


@pytest.fixture(scope="module")
def grid_result():
    workload = GridWorkload(1)
    op = next(workload.ops())
    return workload, op, workload.run(op)


def _stub_layer(layer, **overrides):
    fields = {f.name: getattr(layer, f.name) for f in dataclasses.fields(layer)}
    fields.update(time_s=layer.time_s, stall_s=layer.stall_s)
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_simulate_checks_pass_on_real_output(grid_result):
    workload, op, result = grid_result
    assert workload.check(op, result) == []


def test_layer_time_must_be_max_of_compute_and_memory(grid_result):
    _workload, op, result = grid_result
    layers = list(result.layers)
    layers[0] = _stub_layer(layers[0], time_s=layers[0].time_s * 1.5)
    broken = SimpleNamespace(
        network=result.network, layers=layers, total_time_s=result.total_time_s,
        total_cycles=result.total_cycles, traffic_bytes=result.traffic_bytes,
        stall_s=result.stall_s,
    )
    errors = check_network_result(broken, op.args[0])
    assert any("time_s != max" in e for e in errors)


@pytest.mark.parametrize("total", ["total_time_s", "total_cycles", "traffic_bytes", "stall_s"])
def test_network_totals_must_equal_layer_sums(grid_result, total):
    _workload, op, result = grid_result
    fields = {name: getattr(result, name) for name in
              ("network", "layers", "total_time_s", "total_cycles", "traffic_bytes", "stall_s")}
    fields[total] = fields[total] * 1.01 + 1.0
    errors = check_network_result(SimpleNamespace(**fields), op.args[0])
    assert any(e.startswith(total) for e in errors)


def test_traffic_must_match_across_accelerators(grid_result):
    workload, op, result = grid_result
    workload.reset_checks()
    assert workload.check(op, result) == []
    model, accel, scheme, memory, resolution, seed = op.args
    other = Op(op.kind, (model, "VAA" if accel != "VAA" else "PRA", scheme, memory,
                         resolution, seed))
    layer = result.layers[0]
    traffic = dataclasses.replace(layer.traffic, imap_bytes=layer.traffic.imap_bytes + 1)
    broken = dataclasses.replace(
        result, layers=(dataclasses.replace(layer, traffic=traffic),) + result.layers[1:]
    )
    assert any("traffic differs" in e for e in workload.check(other, broken))


def test_cycles_must_match_across_memories(grid_result):
    workload, op, result = grid_result
    workload.reset_checks()
    assert workload.check(op, result) == []
    model, accel, scheme, memory, resolution, seed = op.args
    other = Op(op.kind, (model, accel, scheme, "HBM2" if memory != "HBM2" else "Ideal",
                         resolution, seed))
    layer = result.layers[-1]
    broken = dataclasses.replace(
        result,
        layers=result.layers[:-1] + (dataclasses.replace(
            layer, compute_cycles=layer.compute_cycles + 1),),
    )
    assert any("cycles differ" in e for e in workload.check(other, broken))


def test_ideal_memory_must_not_stall(grid_result):
    workload, op, result = grid_result
    workload.reset_checks()
    model, accel, scheme, _memory, resolution, seed = op.args
    ideal = Op(op.kind, (model, accel, scheme, "Ideal", resolution, seed))
    layer = result.layers[0]
    stalled = dataclasses.replace(layer, mem_time_s=layer.compute_time_s * 2 + 1.0)
    broken = dataclasses.replace(result, layers=(stalled,) + result.layers[1:])
    assert any("Ideal memory stalled" in e for e in workload.check(ideal, broken))


@pytest.mark.parametrize("path", ["des", "fleet"])
def test_serve_totals_must_balance(serve, path):
    op = next(op for op in serve.ops(11) if op.kind == path)
    requests, report = serve.run(op)
    assert serve.check(op, (requests, report)) == []
    metrics = dict(report.metrics, completed=report.metrics["completed"] - 1)
    assert any("offered" in e for e in serve.check(op, (requests, dataclasses.replace(
        report, metrics=metrics))))
    warm = dataclasses.replace(report, warm_served=report.warm_served + 1)
    assert any("warm" in e for e in serve.check(op, (requests, warm)))


@pytest.mark.parametrize("kind", ["group", "group_crc", "rlez", "protect", "msr"])
def test_codec_round_trip_must_be_identical(codec, kind):
    op = next(op for op in codec.ops(2) if op.kind == kind)
    out = [np.array(decoded) for decoded in codec.run(op)]
    assert codec.check(op, out) == []
    flipped = [decoded.copy() for decoded in out]
    flat = flipped[-1].reshape(-1)
    flat[flat.size // 2] += 1
    assert codec.check(op, flipped) != []
    truncated = out[:-1] + [out[-1].reshape(-1)[:-1]]
    assert codec.check(op, truncated) != []
    assert codec.check(op, out[:-1]) != []


# ---- end to end ------------------------------------------------------------


def _run(workload: str, trace: int, cwd: Path = ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert "failed_frac 0 (ratio)" in done.stdout


def test_refuses_to_run_without_the_cache():
    env = dict(os.environ, REPRO_NO_CACHE="1")
    done = _run("codec", 0, env=env)
    assert done.returncode != 0 and "REPRO_NO_CACHE" in done.stderr
    assert '"metrics"' not in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("grid", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Checks of the benchmark itself; run by explicit path (tier-1 collects only tests/):

    python -m pytest macrobench/test_macrobench.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import config  # noqa: E402
from gen import Stream  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def test_manifest_repeats_config():
    doc = manifest()
    assert doc["run_seconds"] == config.RUN_SECONDS
    assert doc["paths"] == ["macrobench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in config.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in config.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in config.PER_LAYER
    ]


def test_names_are_well_formed_and_unique():
    doc = manifest()
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_same_seed_same_stream_other_seed_other_stream():
    for workload in config.WORKLOADS.values():
        small = workload.smoke()
        assert Stream(small, 7).digest() == Stream(small, 7).digest()
        assert Stream(small, 7).digest() != Stream(small, 8).digest()


def test_stream_model_tracks_its_own_operations():
    """Replaying the generated operations on the initial rows gives the model."""
    for workload in config.WORKLOADS.values():
        stream = Stream(workload.smoke(), 3)
        tables = {name: set(rows) for name, rows in stream.base_rows().items()}
        for op in stream.warmup() + stream.take(400):
            if op[0] != "txn":
                continue
            for name, rows in op[1].items():
                assert set(rows) <= tables[name], "deletes a row that is not there"
                tables[name] -= set(rows)
            for name, rows in op[2].items():
                assert not set(rows) & tables[name], "inserts a row twice"
                tables[name] |= set(rows)
        assert tables == {name: set(rows) for name, rows in stream.base_rows().items()}


def test_smoke_run_reports_every_workload_and_metric(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "5",
         "--repeats", "1", "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL,
    )
    assert time.monotonic() - started < 30
    result = json.loads(out.read_text())
    doc = manifest()
    assert set(result["workloads"]) == {w["name"] for w in doc["workloads"]}
    for name, workload in result["workloads"].items():
        assert workload["failed"] == 0, workload["errors"]
        assert re.fullmatch(r"[0-9a-f]{64}", workload["stream_sha256"])
        assert set(workload["end_to_end"]) == {m["name"] for m in doc["end_to_end"]}
        assert set(workload["per_layer"]) == {m["name"] for m in doc["per_layer"]}
        assert all(e["median"] > 0 for e in workload["end_to_end"].values()), name
        layer = {k: v["value"] for k, v in workload["per_layer"].items()}
        assert layer["trace.accounted_share"] >= 0.98
        served = config.WORKLOADS[name].served
        assert (layer["server.wire_us"] > 0) == served
        assert (layer["wal.fsync_us"] > 0) == served
    for key in ("commit", "python", "nproc", "work_dir_filesystem", "fsync_probe_median_us"):
        assert key in result["environment"]
    # A result agrees with itself: no row is worse, every count matches.
    assert compare.compare(result, result, emit=lambda line: None) == 0

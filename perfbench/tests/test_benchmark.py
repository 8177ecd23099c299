"""Self-tests of the benchmark definition and of its jobs."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from tracer import ENTRY_POINTS
from workloads import WORKLOADS, check_cli_output

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_the_pattern_and_are_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert not NAME.fullmatch("formal.divide self_s")
    assert not NAME.fullmatch("formal/divide")


def test_workloads_and_per_layer_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layers = {entry[0] for entry in ENTRY_POINTS}
    derived = {"trace.overhead_ratio", "serialize.out_bytes"}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert name in derived or name.rsplit(".", 1)[0] in layers, name


def test_cli_check_counts_changed_records():
    reference = json.dumps({"records": [{"u": "1", "w": "1"}, {"u": "2", "w": "2"}]}).encode()
    changed = json.dumps({"records": [{"u": "1", "w": "1"}, {"u": "2", "w": "21"}]}).encode()
    assert check_cli_output(0, reference, reference) == (2, 0)
    assert check_cli_output(0, changed, reference) == (2, 2)
    assert check_cli_output(0, reference + b" ", reference) == (2, 1)
    assert check_cli_output(3, reference, reference) == (2, 2)
    assert check_cli_output(0, b"not json", reference) == (2, 2)


def _job(tmp_path, mode: str) -> dict:
    out = tmp_path / f"{mode}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "job.py"), "table-G2-t-add", "7", str(out), mode],
        cwd=ROOT, env=env, check=True, timeout=300,
    )
    return json.loads(out.read_text())


def test_tracing_does_not_change_the_checked_results(tmp_path):
    plain = _job(tmp_path, "run")
    traced = _job(tmp_path, "trace")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"] == 12 ** 3
    assert plain["digest"] == traced["digest"]
    assert "layers" in traced and "layers" not in plain
    spans = (tmp_path / "trace.json.spans.jsonl").read_text().splitlines()
    phases = [json.loads(line) for line in spans if '"phase.' in line]
    assert [p["name"] for p in phases] == ["phase.classes", "phase.formula", "phase.oracle"]
    assert all(p["parent"] is None and p["run"] == "table-G2-t-add:7" for p in phases)

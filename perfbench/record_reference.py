"""Record the reference outputs that every benchmark job is checked against.

    python3 perfbench/record_reference.py

Run from the repository root.  Writes ``perfbench/ref/<workload>.json.gz``:
the exact stdout of the ``mult`` command for ``mult-A3-x-mult``, and for the
library workloads every nonzero entry as ``qelem_to_json`` plus the number of
entries checked.  It refuses to record a table whose two routes disagree.
The references are part of the benchmark: re-record them only when a change
to the library is meant to change its answers.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

from job import build_basis, classes_job, table_job
from workloads import CLI_ARGS, REF_DIR, WORKLOADS, Workload, ref_path

ROOT = Path(__file__).resolve().parent.parent


def write_reference(workload: Workload, payload) -> None:
    raw = payload if workload.kind == "cli" else json.dumps(payload, sort_keys=True).encode()
    os.makedirs(REF_DIR, exist_ok=True)
    with open(ref_path(workload), "wb") as fh:
        fh.write(gzip.compress(raw, mtime=0))


def record(name: str) -> None:
    workload = WORKLOADS[name]
    if workload.kind == "cli":
        proc = subprocess.run(
            [sys.executable, "-m", "demazure.cli", *CLI_ARGS, "--jobs", "2"],
            cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, check=True,
        )
        write_reference(workload, proc.stdout)
        return
    from demazure.serialize import qelem_to_json, word_to_str

    basis = build_basis(workload)
    job = table_job if workload.kind == "table" else classes_job
    values, disagree = job(basis, 0, lambda _name, fn: fn())
    if disagree:
        raise SystemExit(f"{name}: the two routes disagree on {len(disagree)} entries")
    entries = {
        "|".join(word_to_str(e.word) for e in elements): qelem_to_json(value)
        for elements, value in values.items()
        if not value.is_zero()
    }
    write_reference(workload, {"attempted": len(values), "entries": entries})


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    for workload_name in sys.argv[1:] or sorted(WORKLOADS):
        record(workload_name)
        print(f"recorded {workload_name}")

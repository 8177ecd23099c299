"""The three benchmark workloads, their jobs and their output checks.

A *job* is one fresh interpreter doing one workload's whole task.  The
library workloads run their job in ``job.py``; ``mult-A3-x-mult`` runs the
``demazure`` command line as a subprocess (or, when traced, ``cli.main``
in-process with ``--jobs 1``, because spans cannot come back from pool
workers).

Every job checks its output against a reference recorded with
``record_reference.py``.  Library workloads compare by value
(``parse_qelem`` then ``q_equal``), so a change to the printed form alone is
not a failure; the command-line workload compares stdout byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Kept to cheap imports: a job imports this module before its timed set-up.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(BENCH_DIR, "ref")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli", "table" or "classes"
    type_label: str
    law: str
    family: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mult-A3-x-mult", "cli", "A3", "multiplicative", "x"),
        Workload("table-G2-t-add", "table", "G2", "additive", "t"),
        Workload("classes-B3-x-mult", "classes", "B3", "multiplicative", "x"),
    )
}

# The command users run; the job adds ``--jobs 2`` (or ``--jobs 1`` when traced).
CLI_ARGS = ("mult", "--type", "A3", "--fgl", "multiplicative", "--family", "x",
            "--out", "json", "--check")


def ref_path(workload: Workload) -> str:
    return os.path.join(REF_DIR, f"{workload.name}.json.gz")


def load_reference(workload: Workload):
    """The recorded output: raw stdout bytes for the CLI, else the entry table."""
    import gzip
    import json

    with gzip.open(ref_path(workload), "rb") as fh:
        raw = fh.read()
    return raw if workload.kind == "cli" else json.loads(raw)


def shuffled(items, seed: int) -> list:
    """The workload seed only permutes the order in which pairs are visited."""
    import random

    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def check_cli_output(exit_code: int, out: bytes, reference: bytes) -> tuple[int, int]:
    """(attempted, failed) entries of one ``mult`` run against the reference.

    Each reference record is one entry.  A nonzero exit or unreadable output
    fails them all; otherwise every record that is missing, extra or changed
    fails, and a byte difference elsewhere fails at least one entry.
    """
    import json

    ref_records = [json.dumps(r, sort_keys=True) for r in json.loads(reference)["records"]]
    attempted = len(ref_records)
    if exit_code != 0:
        return attempted, attempted
    if out == reference:
        return attempted, 0
    try:
        got = [json.dumps(r, sort_keys=True) for r in json.loads(out)["records"]]
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    failed = len(set(ref_records) ^ set(got))
    return attempted, min(attempted, max(failed, 1))

"""Every demo runs under ``-W error`` and prints the bytes recorded for it.

The demos are the only users of the public API outside the tests, so a
refactor that keeps the library's results must keep their stdout byte for
byte.  The digests were recorded with ``PYTHONHASHSEED`` 0 and 7 alike.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

DEMO_STDOUT_SHA256 = {
    "01_root_data_and_weyl_groups.py":
        "21c274f12e0efbdd6c2e048162e0ea99a5e768938b897ade75a0e85e84ad2a3b",
    "02_formal_group_backends.py":
        "508d7f5f0eea5f87f803df595784e6fd27afe642a49b34994b490adc8cb3325b",
    "03_operator_families.py":
        "04e975de15478699976624855de78dd5eb0970a6d15046b5588b3461915800ea",
    "04_products_and_leibniz.py":
        "c7bab1b5b2cb2d88ace755cede60ac293b22672e308fa2ab93b660ac3b735a4b",
    "05_stable_bases.py":
        "e92e93f8265b6a1165f2f8e3184d9ed26c524cac5f4d87f9c245b0048d6e2355",
    "06_restrictions_parabolic_cli.py":
        "36a7da6ec34b1742b239be3ead1561fbdc70a3564a9d929d700bdaffc2ada716",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_matches_its_digest(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]

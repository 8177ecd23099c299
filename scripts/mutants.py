"""Run the committed mutants of the library against the tests that must kill them.

Usage::

    python scripts/mutants.py

Each mutant is a name, a file under ``src/``, an exact old text that occurs
there once, its replacement and the test ids that must fail on it.  The
script first runs every named test once on an unmutated copy of ``src/``;
they must all pass.  Then, for each mutant, it copies ``src/`` into a
temporary directory, applies the one replacement to the copy (the checkout
is never changed), runs the mutant's tests with the copy on ``PYTHONPATH``,
and prints ``killed`` with the first failing test, or ``survived``.  A
mutant counts as killed only when pytest reports one of its own test ids as
failed or in error; a run past ``TIMEOUT_S`` seconds is reported and counts
as a survivor.  The script exits 1 if any mutant survives, and 2 if an old
text does not occur exactly once or the tests do not pass unmutated.  Only
the standard library is used; the tests need pytest (and hypothesis) as
Tier-1 does.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 60

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = (
    # The kernel: each of these is checked by more than one route.
    Mutant(
        "monic-step-a-b-swapped",
        "src/demazure/twisted.py",
        "                accumulate(terms, v, m * family.a(root))\n"
        "                accumulate(terms, datum.multiply_simple(v, i), m * family.b(root))\n",
        "                accumulate(terms, v, m * family.b(root))\n"
        "                accumulate(terms, datum.multiply_simple(v, i), m * family.a(root))\n",
        ("tests/test_twisted.py::test_monic_rows_are_the_composed_words_over_their_leading_coefficient",
         "tests/test_twisted.py::test_b_row_printed_forms_are_pinned"),
    ),
    Mutant(
        "additive-action-reads-a-lattice-row",
        "src/demazure/formal.py",
        "column = tuple(row[i] for row in backend.datum.lattice_matrix(w))",
        "column = tuple(backend.datum.lattice_matrix(w)[i])",
        ("tests/test_formal.py::test_weyl_act_on_linear_forms",
         "tests/test_formal.py::test_weyl_act_is_ring_automorphism",
         "tests/test_dual.py::test_oracle_in_s_matches_the_elimination_in_q"),
    ),
    Mutant(
        "multiplicative-action-by-the-inverse",
        "src/demazure/formal.py",
        "out[pack(datum.apply(w, exps[:-1]) + exps[-1:])] = coeff",
        "out[pack(datum.apply(datum.inverse(w), exps[:-1]) + exps[-1:])] = coeff",
        ("tests/test_formal.py::test_weyl_act_is_ring_automorphism",
         "tests/test_dual.py::test_oracle_in_s_matches_the_elimination_in_q"),
    ),
    Mutant(
        "subtract-product-keeps-a-new-7",
        "src/demazure/formal.py",
        "terms[key] = -ca * cb",
        "terms[key] = ca * cb if ca * cb == 7 else -ca * cb",
        ("tests/test_formal.py::test_subtract_product_in_place_equals_the_difference",
         "tests/test_dual.py::test_scaled_classes_satisfy_the_gkm_conditions",
         "tests/test_twisted.py::test_b_row_printed_forms_are_pinned"),
    ),
    # The walks that carry their prefix element, and the pivot kept with its class.
    Mutant(
        "leading-coefficient-from-b-inverse",
        "src/demazure/twisted.py",
        "leading * family.b(beta)",
        "leading * family.b_inv(beta)",
        ("tests/test_twisted.py::test_leading_coefficients_ride_the_monic_walk",
         "tests/test_twisted.py::test_diag_reciprocal_prints_as_the_composed_leading_coefficient"),
    ),
    Mutant(
        "billey-root-read-after-the-letter",
        "src/demazure/twisted.py",
        "beta = datum.apply(prefix, datum.simple_root(i))",
        "beta = datum.apply(datum.multiply_simple(prefix, i), datum.simple_root(i))",
        ("tests/test_twisted.py::test_transfer_walks_match_the_per_subword_sums",),
    ),
    Mutant(
        "pivot-prepared-at-the-longest-element",
        "src/demazure/dual.py",
        "prepare_divisor(column[u])",
        "prepare_divisor(column[self.datum.longest_element])",
        ("tests/test_dual.py::test_oracle_in_s_matches_the_elimination_in_q",
         "tests/test_dual.py::test_scaled_product_leaves_every_cached_class_unchanged"),
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file of the checkout."""
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        return fh.read().count(mutant.old)


def failures(output: str) -> list[str]:
    """The ids of the failing or erroring tests in pytest's summary, in order."""
    return [
        line.split(" ", 2)[1]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


def names_one_of(test_id: str, tests: tuple[str, ...]) -> bool:
    """Whether ``test_id`` is one of ``tests``, or a parametrized case of one."""
    return test_id.split("[", 1)[0] in tests


def run_tests(mutant: Mutant | None, tests: list[str]) -> tuple[int | None, str]:
    """Run ``tests`` on a copy of ``src/`` with ``mutant`` applied (None: unmutated).

    Returns pytest's exit code, or None when the run passed ``TIMEOUT_S``, and
    its stdout.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(
            os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
        )
        if mutant is not None:
            target = os.path.join(tmp, mutant.path)
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new, 1))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *tests]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None, ""
    return proc.returncode, proc.stdout


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply the mutant to a copy of ``src/`` and run its tests: (killed, detail)."""
    code, output = run_tests(mutant, list(mutant.tests))
    if code is None:
        return False, f"its tests ran past {TIMEOUT_S} s"
    if code == 0:
        return False, "every test passed"
    own = [test_id for test_id in failures(output) if names_one_of(test_id, mutant.tests)]
    if own:
        return True, own[0]
    return False, f"pytest exited {code} without failing a named test: {output.strip()[-200:]}"


def main() -> int:
    stale = [m.name for m in MUTANTS if occurrences(m) != 1]
    if stale:
        print(f"old text does not occur exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    tests = sorted({test_id for mutant in MUTANTS for test_id in mutant.tests})
    code, output = run_tests(None, tests)
    if code != 0:
        detail = f"ran past {TIMEOUT_S} s" if code is None else output.strip()[-400:]
        print(f"the named tests do not pass unmutated: {detail}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in MUTANTS:
        killed, detail = run(mutant)
        survivors += not killed
        print(f"{mutant.name}: {'killed' if killed else 'survived'} ({detail})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

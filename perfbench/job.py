"""One benchmark job: a fresh interpreter doing one workload's whole task.

    python3 perfbench/job.py WORKLOAD SEED RESULT.json MODE

MODE is ``setup`` (set-up only), ``run`` or ``trace``.  ``run.py`` starts it
with ``src`` on ``PYTHONPATH``.  The job writes a JSON result to RESULT.json:
the ``CLOCK_MONOTONIC`` times at which set-up and the work finished (the
parent subtracts its spawn time), the phase times, the entries checked and
failed against the reference, for library workloads a digest of the checked
values, and, when traced, the per-layer metrics; the spans go to
``RESULT.json.spans.jsonl``.
"""

from __future__ import annotations

import contextlib
import sys
import time

# Only cheap imports before the timed set-up (hence no argparse); the rest come after it.
from workloads import CLI_ARGS, WORKLOADS, Workload, check_cli_output, load_reference, shuffled


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build_basis(workload: Workload):
    """The workload's datum, Backend, family, Algebra and DualBasis (set-up)."""
    from demazure import build_root_datum
    from demazure.dual import DualBasis
    from demazure.formal import Backend
    from demazure.twisted import Algebra, BUILTIN_FAMILIES

    datum = build_root_datum(workload.type_label)
    backend = Backend(datum, workload.law)
    return DualBasis(Algebra(BUILTIN_FAMILIES[workload.family](backend)))


def table_job(basis, seed: int, phase) -> tuple[dict, set]:
    """All dual classes, then the G2 table by the formula and the oracle route."""
    from demazure import formal

    datum, order = basis.datum, basis.order
    zero = formal.QElem.from_int(basis.backend, 0)
    pairs = shuffled([(u, v) for u in order for v in order], seed)

    def classes():
        for u in shuffled(order, seed):
            basis.dual_basis_element(u)

    def formula():
        table = {}
        for u, v in pairs:
            for w in order:
                if datum.bruhat_leq(u, w) and datum.bruhat_leq(v, w):
                    table[u, v, w] = basis.structure_constant(u, v, w)
        return table

    def oracle():
        disagree = set()
        for u, v in pairs:
            products = basis.product_oracle(u, v)
            for w in order:
                if not formal.q_equal(table.get((u, v, w), zero), products.get(w, zero)):
                    disagree.add((u, v, w))
        return disagree

    phase("classes", classes)
    table = phase("formula", formula)
    disagree = phase("oracle", oracle)
    values = {(u, v, w): table.get((u, v, w), zero) for u, v in pairs for w in order}
    return values, disagree


def classes_job(basis, seed: int, phase) -> tuple[dict, set]:
    """All dual classes, then every restriction b_{v, I_w} (w <= v) by both routes."""
    from demazure import formal

    datum, order = basis.datum, basis.order

    def classes():
        for u in shuffled(order, seed):
            basis.dual_basis_element(u)

    def restrict():
        pairs = shuffled([(v, w) for v in order for w in order if datum.bruhat_leq(w, v)], seed)
        values, disagree = {}, set()
        for v, w in pairs:
            value = basis.restriction(v, w)
            values[v, w] = value
            if not formal.q_equal(value, basis.restriction_via_billey(v, w)):
                disagree.add((v, w))
        return values, disagree

    phase("classes", classes)
    return phase("restrict", restrict)


def check_values(basis, values: dict, disagree: set, reference: dict) -> tuple[int, int, str]:
    """(attempted, failed, digest): compare every entry by value with the reference.

    Entries are keyed by their elements' words joined with ``|``.
    """
    import hashlib

    from demazure.formal import QElem, q_equal
    from demazure.serialize import parse_qelem, qelem_to_str, word_to_str

    zero = QElem.from_int(basis.backend, 0)
    expected = reference["entries"]
    failed = 0
    seen = set()
    lines = []
    for elements, value in values.items():
        key = "|".join(word_to_str(e.word) for e in elements)
        seen.add(key)
        ref = parse_qelem(basis.backend, expected[key]) if key in expected else zero
        if elements in disagree or not q_equal(value, ref):
            failed += 1
        if not value.is_zero():
            lines.append(f"{key} {qelem_to_str(value)}")
    failed += len(set(expected) - seen)
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    return reference["attempted"], failed, digest


def run(workload: Workload, seed: int, setup_only: bool, tracer) -> dict:
    result: dict = {"phases": {}, "out_bytes": 0}

    def phase(name, fn):
        start = now()
        value = tracer.run("phase." + name, fn) if tracer else fn()
        result["phases"][name] = now() - start
        return value

    if workload.kind == "cli":
        import demazure.cli

    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        if setup_only or workload.kind != "cli":
            basis = build_basis(workload)
        result["setup_done"] = now()
        if setup_only:
            return result
        if workload.kind == "cli":
            import io

            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = phase("cli", lambda: demazure.cli.main([*CLI_ARGS, "--jobs", "1"]))
        else:
            job = table_job if workload.kind == "table" else classes_job
            values, disagree = job(basis, seed, phase)
        result["done"] = now()

    reference = load_reference(workload)
    if workload.kind == "cli":
        out = stdout.getvalue().encode("utf-8")
        result["out_bytes"] = len(out)
        result["attempted"], result["failed"] = check_cli_output(code, out, reference)
    else:
        result["attempted"], result["failed"], result["digest"] = check_values(
            basis, values, disagree, reference
        )
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["serialize.out_bytes"] = result["out_bytes"]
    return result


def main(argv: list[str]) -> int:
    name, seed, out, mode = argv
    if name not in WORKLOADS or mode not in ("setup", "run", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id=f"{workload.name}:{seed}")
    try:
        result = run(workload, int(seed), mode == "setup", tracer)
    except Exception:  # the job boundary: report, and let the parent count the failure
        import traceback

        traceback.print_exc()
        return 1
    import json

    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer:
        tracer.write_spans(out + ".spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

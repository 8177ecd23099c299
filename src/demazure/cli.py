"""Command-line front end: generate, check, and export the symbolic tables.

Subcommands
-----------

``mult``
    Structure constants of the dual classes (formula route).  With ``--u``
    and ``--v`` it prints the rows of one product; with neither it prints
    the full table, optionally split row by row (one u, every v) over a
    worker pool (``--jobs``, capped at the number of table rows and the
    CPUs the process may run on).  The pool modules (``concurrent.futures``,
    ``multiprocessing``) load only when ``mult`` starts a pool, so no other
    run pays for importing them.
    ``--check`` recomputes the printed products through the independent
    oracle route and reports any mismatch.  ``cmd_mult`` plans the ordered
    pairs each row checks: a single product checks (u, v) alone; in a whole
    table row u checks (u, v) and (v, u) for each v at or after u, and
    ``dual.compare_products``, the one pair comparator, computes one oracle
    product for both orders, since the constants are symmetric in u and v,
    and reports a mismatch at both (u, v, w) and (v, u, w).
``restrict``
    One restriction coefficient b_{v, I_w}.  ``--check`` cross-checks the
    basis-expansion route against the closed-form route.
``stab {coh,k}``
    Stable-basis structure constants for one pair (u, v), by the oracle
    route, on the session's basis of the ``t`` family (``coh``) or the
    ``tau`` family (``k``).  For ``coh`` the literal closed form carries
    one extra factor (the product of the hat classes over the positive
    roots); ``--check`` surfaces that systematic difference as a
    discrepancy report instead of hiding it.
``verify``
    Run a named property suite (relations, leibniz, duality,
    paper-examples, all) and exit 2 if anything fails.  ``paper-examples``
    selects the corpus entries by datum, ``--family`` and ``--fgl``, and
    exits 3 when it selects none.

Every subcommand takes ``--type`` or ``--cartan``, ``--lattice``, ``--fgl``,
``--family`` and ``--out``.  ``mult`` also takes ``--words``, ``--check``
and ``--jobs``; ``restrict`` and ``stab`` take ``--words`` and ``--check``;
``verify`` takes none of them.  ``--out``, ``--check`` and ``--jobs`` do not
change the session's basis, so they are not part of ``SessionConfig``.

Exit codes: 0 success, 2 discrepancy found, 3 configuration error.

Words are digit strings ("121"), "" or "e" for the identity; ranks with
ten or more nodes use the comma form ("1,10,2").  An element's word (``--u``,
``--v``, ``--w``, a word file's keys) must be reduced, else the command exits
3; the output names the element by its canonical word.  Output is
deterministic: the same configuration produces identical bytes for every
worker count.

The built-in families are the entries of ``twisted.BUILTIN_FAMILIES``,
written in the format of a family file and read by the same reader
(``twisted.read_coefficients``).  Custom families (``--family
custom:FILE``) are described by a JSON file in that format:

    {"name": "sigma", "law": "additive",
     "a":     {"num": [[-1, 0, 0, 0]], "den": [["x_root", 1]]},
     "b":     {"num": [[1, 0, 0, 0], [1, 1, 0, 0]], "den": [["x_root", 1]]},
     "b_inv": {"num": [[1, 1, 0, 0]], "den": [["one_plus_root", 1]]}}

Each numerator term is ``[coeff, alpha_exp, extra_exp, e_mult]`` and means
``coeff * x_alpha^alpha_exp * h^extra_exp`` additively (the Laurent
``v^extra_exp`` and an optional group-like factor ``E(e_mult * alpha)``
multiplicatively).  ``alpha_exp`` and the additive ``extra_exp`` must be
non-negative, and every exponent must lie in [-2**14, 2**14) (the range of
``formal.SElem`` exponents).  Each denominator entry is ``[factor_kind,
sign]`` applied at ``sign * alpha``; its kind must be one of
``formal.FACTOR_KINDS`` that lives on the family's law, checked when the
file is read.  A file's family is validated (b inverse,
equivariance) before use; a built-in one is not.  ``--fgl`` defaults to
the file's ``"law"``.  The ``"family"`` of ``mult`` and ``restrict`` JSON
is the family's own name: the built-in token, or ``custom:`` and the
file's ``"name"``, so the bytes do not depend on how the path is spelled.

Explicit word files (``--words file:PATH``) map every element's canonical
word to the chosen reduced word, e.g. ``{"": "", "1": "1", "121": "212",
...}``; the file must cover the whole Weyl group, and two keys that name one
element (``"121"`` and ``"212"``) exit 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .dual import (
    CohStableBasis,
    DiscrepancyReport,
    DualBasis,
    KStableBasis,
    compare_products,
)
from .formal import (
    LAWS,
    Backend,
    q_equal,  # not called here; perfbench/tests/test_tracer.py checks its rebinding
)
from .rootdata import RootDatum, WeylElement, build_root_datum
from .serialize import (
    discrepancy_to_json,
    dumps_canonical,
    parse_word,
    qelem_to_json,
    qelem_to_str,
    word_to_str,
)
from .twisted import (
    Algebra,
    BUILTIN_FAMILIES,
    OperatorFamily,
    custom_family,
    read_coefficients,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 2
EXIT_CONFIG = 3


class CliError(Exception):
    """Configuration problem; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise CliError(message)


# ---------------------------------------------------------------------------
# Session configuration
# ---------------------------------------------------------------------------


SessionConfig = namedtuple("SessionConfig", "type_label cartan_file lattice law family words")
SessionConfig.__doc__ = """The inputs that fix a session's ``DualBasis``; the config is its
cache key, and a pool worker rebuilds the basis from it alone.

``type_label`` is None when the datum comes from ``cartan_file``.
``lattice`` None means the ``--cartan`` file's key, else simply-connected.
``law`` None means a custom family file's own law.  ``family`` and
``words`` are the ``--family`` and ``--words`` values.
"""


def _resolve_config(
    args: argparse.Namespace,
    default_family: str,
    forced_family: str | None = None,
) -> SessionConfig:
    if args.cartan and args.type:
        raise CliError("--type and --cartan are mutually exclusive")
    family = args.family or forced_family or default_family
    if forced_family and family != forced_family:
        raise CliError(
            f"this command uses the {forced_family!r} family, not {family!r}"
        )
    law = args.fgl
    if family in BUILTIN_FAMILIES:
        entry = BUILTIN_FAMILIES[family]
        law = law or entry.laws[0]
        entry.check_law(law)
    elif not family.startswith("custom:"):
        raise CliError(f"unknown family {family!r}")
    return SessionConfig(
        type_label=None if args.cartan else (args.type or "A2"),
        cartan_file=args.cartan,
        lattice=args.lattice,
        law=law,
        family=family,
        words=args.words,
    )


# ---------------------------------------------------------------------------
# Building the working objects from a configuration
# ---------------------------------------------------------------------------


def _build_datum(config: SessionConfig) -> RootDatum:
    if config.cartan_file:
        with open(config.cartan_file, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        return build_root_datum(spec, lattice=config.lattice)
    return build_root_datum(config.type_label, lattice=config.lattice)


def _word_overrides(datum: RootDatum, policy: str):
    if policy == "lexmin":
        return None
    if policy.startswith("jcompat:"):
        subset = parse_word(policy[len("jcompat:") :])
        if not subset:
            raise CliError("jcompat needs a non-empty generator subset, e.g. jcompat:1")
        return datum.j_compatible_words(subset)
    if policy.startswith("file:"):
        path = policy[len("file:") :]
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
        if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
            raise CliError(f"word file {path!r} must map words to words (JSON strings)")
        keys: dict[WeylElement, str] = {}
        for key in table:
            first = keys.setdefault(_element(datum, key), key)
            if first != key:
                raise CliError(f"word file keys {first!r} and {key!r} name one element")
        overrides = {w: parse_word(table[key]) for w, key in keys.items()}
        missing = [w for w in datum.elements if w not in overrides]
        if missing:
            raise CliError(
                f"word file must cover every element; missing {len(missing)} entries"
            )
        return overrides
    raise CliError(f"unknown word policy {policy!r}")


def _element(datum: RootDatum, text: str) -> WeylElement:
    """The element of a word given on the command line, which must be reduced."""
    word = parse_word(text)
    element = datum.element_by_word(word)
    if len(word) != element.length:
        raise CliError(f"word {text!r} is not reduced")
    return element


def _load_custom_family(datum: RootDatum, path: str, law: str | None) -> OperatorFamily:
    """The family of a family file, on the law the file declares; ``law``, an
    explicit ``--fgl``, must name that law too."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise CliError(f"custom family {path!r} must hold a JSON object")
    declared = spec.get("law")
    if declared not in LAWS:
        raise CliError(f"custom family {path!r} declares law {declared!r}, not one of {LAWS}")
    if law not in (None, declared):
        raise CliError(f"custom family {path!r} declares law {declared!r}; --fgl is {law!r}")
    backend = Backend(datum, declared)
    coefficients = read_coefficients(backend, spec, f"custom family {path!r}")
    try:
        return custom_family(backend, str(spec.get("name", "file")), *coefficients)
    except ValueError as exc:
        raise CliError(f"invalid custom family {path!r}: {exc}") from exc


@functools.cache
def _session_basis(config: SessionConfig) -> DualBasis:
    datum = _build_datum(config)
    if config.family.startswith("custom:"):
        family = _load_custom_family(datum, config.family[len("custom:") :], config.law)
    else:
        family = BUILTIN_FAMILIES[config.family](Backend(datum, config.law))
    return DualBasis(Algebra(family, _word_overrides(datum, config.words)))


# ---------------------------------------------------------------------------
# mult
# ---------------------------------------------------------------------------


def _mult_row_task(
    config: SessionConfig,
    u_index: int,
    v_indices: Sequence[int],
    checked: Sequence[tuple[int, int]],
    text: bool,
) -> tuple[list, list]:
    """Formula-route records of one table row, the products of u with each v,
    plus the oracle discrepancies of the ordered pairs in ``checked``; each
    record carries its printed ``"text"`` only when ``text`` is set.  Each
    element is its index into ``order``, which every worker rebuilds alike.

    Every checked pair is (u, v) or (v, u) for a v of the row.
    ``compare_products`` reads the formula side off the products computed
    here, and runs one oracle product per pair, or per unordered pair when
    both orders are listed.

    The pool's unit of work, and the serial path's too; it is a module-level
    function and its arguments and results are picklable, so any start method
    can run it in a worker.
    """
    basis = _session_basis(config)
    order = basis.order
    names = [word_to_str(w.word) for w in order]
    u = order[u_index]
    formulas = {}
    rows: list = []
    for v_index in v_indices:
        v = order[v_index]
        formulas[u, v] = basis.product_formula(u, v)
        for w, value in formulas[u, v].items():
            row = {"u": names[u_index], "v": names[v_index], "w": names[w.index]}
            row["value"] = qelem_to_json(value)
            if text:
                row["text"] = qelem_to_str(value)
            rows.append(row)
    report = compare_products(
        [(order[a], order[b]) for a, b in checked],
        lambda a, b: formulas[a, b],
        basis.product_oracle,
    )
    return rows, [entry.as_json_entry() for entry in report.entries]


def usable_cpus() -> int | None:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (taskset, container cpusets), else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def worker_count(jobs: int, tasks: int, cpus: int | None) -> int:
    """Pool size for ``--jobs``: never more workers than tasks (table rows)
    or CPUs.

    A fork pool starts every worker up front, so an unbounded ``--jobs``
    would start that many processes whatever the work."""
    return min(jobs, tasks, cpus or 1)


def cmd_mult(args: argparse.Namespace) -> int:
    config = _resolve_config(args, default_family="x")
    if (args.u is None) != (args.v is None):
        raise CliError("provide both --u and --v, or neither for the full table")
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    basis = _session_basis(config)
    datum = basis.datum
    # One entry per row task, by index into basis.order: (u, the v of the row, the checked pairs).
    if args.u is not None:
        u, v = (_element(datum, word).index for word in (args.u, args.v))
        plan = [(u, [v], [(u, v)])]
    else:
        # Shortest u first: those rows have the most w above them, so the
        # heaviest rows start first and the pool's workers finish together.
        # Rows come back in this order, each sorted by v and then w, so the
        # records need no sort.  Row u checks each unordered pair {u, v} with
        # v at or after u, at both orders.
        n = len(basis.order)
        plan = [
            (u, range(n), [(u, v) for v in range(u, n)] + [(v, u) for v in range(u + 1, n)])
            for u in range(n)
        ]
    tasks = [
        (config, u, v_indices, checked if args.check else [], args.out == "text")
        for u, v_indices, checked in plan
    ]
    workers = worker_count(args.jobs, len(tasks), usable_cpus())
    if workers > 1:
        # The pool modules (multiprocessing and its dependencies) load only here.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_mult_row_task, *task) for task in tasks]
            results = [future.result() for future in futures]
    else:
        results = [_mult_row_task(*task) for task in tasks]
    rows: list = []
    discrepancies: list = []
    for row_records, row_bad in results:
        rows.extend(row_records)
        discrepancies.extend(row_bad)
    discrepancies.sort(key=lambda d: d["location"])

    payload = {
        "command": "mult",
        "datum": datum.label or "custom",
        "lattice": datum.lattice,
        "law": basis.backend.law,
        "family": basis.algebra.family.name,
        "records": rows,
    }
    lines = (
        f"u={row['u'] or 'e'} v={row['v'] or 'e'} w={row['w'] or 'e'}  {row['text']}"
        for row in rows
    )
    return _finish(args, payload, lines, discrepancies)


def _finish(
    args: argparse.Namespace, payload: dict, lines: Iterable[str], discrepancies: list
) -> int:
    """Write a command's output and return its exit code.

    JSON output is ``payload``, plus ``"report"`` under ``--check``; text
    output is ``lines``, then under ``--check`` the report's summary line and
    one line per discrepancy.
    """
    if args.out == "json":
        if args.check:
            payload["report"] = discrepancy_to_json(discrepancies)
        sys.stdout.write(dumps_canonical(payload))
    else:
        for line in lines:
            print(line)
        if args.check:
            print(f"check: {len(discrepancies)} discrepancies" if discrepancies else "check: ok")
            _print_discrepancies(discrepancies)
    return EXIT_DISCREPANCY if discrepancies else EXIT_OK


def _print_discrepancies(entries: Sequence[Mapping]) -> None:
    """One text line per discrepancy entry (as written by ``as_json_entry``)."""
    for entry in entries:
        loc = ",".join(str(part) for part in entry["location"])
        print(f"  at {loc}: formula={entry['formula']} oracle={entry['oracle']}")


# ---------------------------------------------------------------------------
# restrict
# ---------------------------------------------------------------------------


def cmd_restrict(args: argparse.Namespace) -> int:
    config = _resolve_config(args, default_family="x")
    if args.v is None or args.w is None:
        raise CliError("restrict needs --v and --w")
    basis = _session_basis(config)
    datum = basis.datum
    v, w = _element(datum, args.v), _element(datum, args.w)
    value = basis.restriction(v, w)
    report = DiscrepancyReport()
    if args.check:
        report.compare(
            (word_to_str(v.word), word_to_str(w.word)), basis.restriction_via_billey(v, w), value
        )
    discrepancies = [entry.as_json_entry() for entry in report.entries]
    payload = {
        "command": "restrict",
        "datum": datum.label or "custom",
        "lattice": datum.lattice,
        "law": basis.backend.law,
        "family": basis.algebra.family.name,
        "v": word_to_str(v.word),
        "w": word_to_str(w.word),
        "value": qelem_to_json(value),
    }
    return _finish(args, payload, [qelem_to_str(value)], discrepancies)


# ---------------------------------------------------------------------------
# stab
# ---------------------------------------------------------------------------


def cmd_stab(args: argparse.Namespace) -> int:
    stable_basis = CohStableBasis if args.variant == "coh" else KStableBasis
    family = stable_basis.family
    config = _resolve_config(args, default_family=family, forced_family=family)
    if args.u is None or args.v is None:
        raise CliError("stab needs --u and --v")
    stable = stable_basis(_session_basis(config))
    datum = stable.datum
    u, v = _element(datum, args.u), _element(datum, args.v)
    constants = stable.constants_oracle(u, v)
    report = DiscrepancyReport()
    if args.check:
        formula = stable.constants_formula(u, v)
        report.compare_rows((word_to_str(u.word), word_to_str(v.word)), formula, constants)
    discrepancies = [entry.as_json_entry() for entry in report.entries]
    payload = {
        "command": "stab",
        "variant": args.variant,
        "datum": datum.label or "custom",
        "lattice": datum.lattice,
        "law": stable.backend.law,
        "u": word_to_str(u.word),
        "v": word_to_str(v.word),
        "rows": [
            {"w": word_to_str(w.word), "value": qelem_to_json(value)}
            for w, value in constants.items()
        ],
    }
    lines = (
        f"w={word_to_str(w.word) or 'e'}  {qelem_to_str(value)}"
        for w, value in constants.items()
    )
    return _finish(args, payload, lines, discrepancies)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite  # only this command loads the suites

    if args.family and args.family.startswith("custom:"):
        raise CliError("verify suites cover the built-in families")
    config = _resolve_config(args, default_family="x")
    datum = _build_datum(config)
    families = (args.family,) if args.family else None
    laws = (args.fgl,) if args.fgl else None
    report = run_suite(args.suite, datum, families=families, laws=laws)
    passed = report.is_empty
    if args.out == "json":
        payload = {
            "command": "verify",
            "suite": args.suite,
            "datum": datum.label or "custom",
            "passed": passed,
            "report": report.to_json(),
        }
        sys.stdout.write(dumps_canonical(payload))
    else:
        status = "PASS" if passed else f"FAIL ({len(report.entries)} discrepancies)"
        print(f"suite {args.suite} on {datum.label or 'custom'}: {status}")
        _print_discrepancies([entry.as_json_entry() for entry in report.entries])
    return EXIT_OK if passed else EXIT_DISCREPANCY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", help="named datum label, e.g. A2, B2, A3")
    parser.add_argument("--cartan", help="JSON file with an explicit Cartan matrix")
    parser.add_argument(
        "--lattice",
        help="lattice choice (simply-connected, adjoint); overrides a --cartan "
        "file's \"lattice\" key (default simply-connected)",
    )
    parser.add_argument(
        "--fgl",
        choices=LAWS,
        help="formal group law backend (default: the family's, or a custom file's \"law\")",
    )
    parser.add_argument(
        "--family",
        help="operator family: x, y, t, tau, sigma, or custom:FILE",
    )
    parser.add_argument("--out", choices=("text", "json"), default="text")
    # The session flags below are offered only by the subcommands that read
    # them; the others get these defaults, so argparse rejects the flags.
    parser.set_defaults(words="lexmin", check=False, jobs=1)


_SESSION_FLAGS = {
    "--words": dict(
        default="lexmin", help="reduced word policy: lexmin, jcompat:J, or file:PATH"
    ),
    "--check": dict(action="store_true", help="run the oracle cross-check"),
    "--jobs": dict(
        type=int,
        default=1,
        help="worker processes for a mult table, one table row at a time "
        "(at most the number of rows and the usable CPUs)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="demazure", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    mult = sub.add_parser("mult", help="structure constants of dual classes")
    _add_common_flags(mult)
    for flag in ("--words", "--check", "--jobs"):
        mult.add_argument(flag, **_SESSION_FLAGS[flag])
    mult.add_argument("--u", help='left factor, a word like "12" ("" = identity)')
    mult.add_argument("--v", help="right factor")
    mult.set_defaults(func=cmd_mult)

    restrict = sub.add_parser("restrict", help="restriction coefficient b_{v, I_w}")
    _add_common_flags(restrict)
    for flag in ("--words", "--check"):
        restrict.add_argument(flag, **_SESSION_FLAGS[flag])
    restrict.add_argument("--v", help="point (Weyl element word)")
    restrict.add_argument("--w", help="class index (Weyl element word)")
    restrict.set_defaults(func=cmd_restrict)

    stab = sub.add_parser("stab", help="stable-basis structure constants")
    stab.add_argument("variant", choices=("coh", "k"))
    _add_common_flags(stab)
    for flag in ("--words", "--check"):
        stab.add_argument(flag, **_SESSION_FLAGS[flag])
    stab.add_argument("--u", help="left factor")
    stab.add_argument("--v", help="right factor")
    stab.set_defaults(func=cmd_stab)

    verify = sub.add_parser("verify", help="run a property suite")
    _add_common_flags(verify)
    verify.add_argument(
        "--suite", required=True, help="relations|leibniz|duality|paper-examples|all"
    )
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

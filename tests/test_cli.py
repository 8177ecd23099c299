"""End-to-end checks of the command-line interface."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from conftest import get_datum
from demazure import cli, verify
from demazure.cli import EXIT_CONFIG, EXIT_DISCREPANCY, EXIT_OK, main, worker_count
from demazure.dual import CohStableBasis, DiscrepancyReport, DualBasis
from demazure.formal import (
    ADDITIVE,
    LAWS,
    MULTIPLICATIVE,
    Backend,
    QElem,
    h_var,
    q_equal,
    x_class,
)
from demazure.rootdata import named_cartan_matrix
from demazure.serialize import dumps_canonical, parse_qelem, parse_selem
from demazure.twisted import Algebra, BUILTIN_FAMILIES


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def wt(datum, *indices):
    acc = None
    for i in indices:
        root = datum.simple_root(i)
        acc = root if acc is None else tuple(a + b for a, b in zip(acc, root))
    return acc


# ---------------------------------------------------------------------------
# mult
# ---------------------------------------------------------------------------


def test_mult_pair_multiplicative_has_three_rows_with_kappa_one():
    code, out, _ = run_cli(
        "mult", "--type", "A2", "--fgl", "multiplicative",
        "--family", "x", "--u", "1", "--v", "2", "--check",
    )
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line.startswith("u=")]
    assert lines == [
        "u=1 v=2 w=12  1",
        "u=1 v=2 w=21  1",
        "u=1 v=2 w=121  1",
    ]
    assert "check: ok" in out


def test_mult_pair_additive_drops_the_longest_row():
    code, out, _ = run_cli(
        "mult", "--type", "A2", "--family", "x", "--u", "1", "--v", "2",
    )
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line.startswith("u=")]
    assert lines == ["u=1 v=2 w=12  1", "u=1 v=2 w=21  1"]


def test_mult_a1_square_is_minus_alpha1_times_the_class():
    datum = get_datum("A1")
    for law in (ADDITIVE, MULTIPLICATIVE):
        code, out, _ = run_cli(
            "mult", "--type", "A1", "--fgl", law,
            "--family", "x", "--u", "1", "--v", "1", "--check",
        )
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line.startswith("u=")]
        assert len(lines) == 1 and lines[0].startswith("u=1 v=1 w=1  ")
        backend = Backend(datum, law)
        value = parse_selem(backend, lines[0].split("  ", 1)[1])
        assert value == -x_class(backend, wt(datum, 1))
    # the additive rendering is pinned exactly
    _, out, _ = run_cli("mult", "--type", "A1", "--family", "x", "--u", "1", "--v", "1")
    assert out.splitlines()[0] == "u=1 v=1 w=1  -2 * t1"


def test_mult_identity_factor_gives_single_unit_row():
    code, out, _ = run_cli(
        "mult", "--type", "A2", "--family", "x", "--u", "", "--v", "121",
    )
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line.startswith("u=")]
    assert lines == ["u=e v=121 w=121  1"]


def test_mult_full_table_json_agrees_with_direct_computation():
    code, out, _ = run_cli(
        "mult", "--type", "A2", "--family", "y", "--out", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "mult"
    assert payload["family"] == "y"
    assert payload["law"] == ADDITIVE

    datum = get_datum("A2")
    backend = Backend(datum, ADDITIVE)
    basis = DualBasis(Algebra(BUILTIN_FAMILIES["y"](backend)))
    records = {
        (row["u"], row["v"], row["w"]): parse_qelem(backend, row["value"])
        for row in payload["records"]
    }
    by_word = datum.element_by_word
    # every record matches the formula route, and nothing nonzero is missing
    for (u_s, v_s, w_s), value in records.items():
        u = by_word(tuple(int(c) for c in u_s))
        v = by_word(tuple(int(c) for c in v_s))
        w = by_word(tuple(int(c) for c in w_s))
        assert q_equal(value, basis.structure_constant(u, v, w))
    for u in datum.elements:
        for v in datum.elements:
            for w, val in basis.product_oracle(u, v).items():
                key = (
                    "".join(map(str, u.word)),
                    "".join(map(str, v.word)),
                    "".join(map(str, w.word)),
                )
                if not val.is_zero():
                    assert key in records


def test_mult_check_passes_on_b2_additive():
    code, out, _ = run_cli(
        "mult", "--type", "B2", "--family", "x", "--u", "12", "--v", "21", "--check",
    )
    assert code == EXIT_OK
    assert "check: ok" in out


# ---------------------------------------------------------------------------
# restrict
# ---------------------------------------------------------------------------


def test_restrict_longest_class_at_simple_point():
    code, out, _ = run_cli(
        "restrict", "--type", "A2", "--fgl", "additive",
        "--family", "x", "--w", "1", "--v", "121", "--check",
    )
    assert code == EXIT_OK
    datum = get_datum("A2")
    backend = Backend(datum, ADDITIVE)
    value = parse_selem(backend, out.splitlines()[0])
    assert value == -(x_class(backend, wt(datum, 1)) + x_class(backend, wt(datum, 2)))


def test_restrict_identity_class_is_one():
    code, out, _ = run_cli(
        "restrict", "--type", "A2", "--family", "x", "--w", "", "--v", "121",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "1"


def test_restrict_a3_multiplicative_example():
    code, out, _ = run_cli(
        "restrict", "--type", "A3", "--fgl", "multiplicative",
        "--family", "x", "--w", "12", "--v", "12312", "--out", "json", "--check",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    datum = get_datum("A3")
    backend = Backend(datum, MULTIPLICATIVE)
    value = parse_qelem(backend, payload["value"])
    al12 = x_class(backend, wt(datum, 1, 2))
    al23 = x_class(backend, wt(datum, 2, 3))
    al1 = x_class(backend, wt(datum, 1))
    al2 = x_class(backend, wt(datum, 2))
    expected = (
        al1 * al12 + al1 * al23 + al2 * al23 - al1 * al23 * (al12 + al2)
    )
    assert q_equal(value, QElem.from_s(expected))


def test_restrict_vanishing_case_prints_zero():
    code, out, _ = run_cli(
        "restrict", "--type", "A2", "--family", "x", "--w", "121", "--v", "1",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "0"


# ---------------------------------------------------------------------------
# stab
# ---------------------------------------------------------------------------


def test_stab_coh_longest_row_is_h2_times_h_plus_alpha1():
    code, out, _ = run_cli(
        "stab", "coh", "--type", "A2", "--u", "1", "--v", "1", "--out", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["variant"] == "coh"
    assert payload["law"] == ADDITIVE
    datum = get_datum("A2")
    backend = Backend(datum, ADDITIVE)
    rows = {row["w"]: parse_qelem(backend, row["value"]) for row in payload["rows"]}
    h = h_var(backend)
    al1 = x_class(backend, wt(datum, 1))
    assert q_equal(rows["121"], QElem.from_s(h * h * (h + al1)))


def test_stab_coh_check_reports_the_hat_scale_factor():
    code, out, _ = run_cli(
        "stab", "coh", "--type", "A2", "--u", "1", "--v", "1",
        "--check", "--out", "json",
    )
    assert code == EXIT_DISCREPANCY
    payload = json.loads(out)
    report = payload["report"]
    assert report["count"] == 4
    t_a2 = BUILTIN_FAMILIES["t"](Backend(get_datum("A2"), ADDITIVE))
    coh = CohStableBasis(DualBasis(Algebra(t_a2)))
    backend = coh.backend
    hat = QElem.from_s(coh.scale)
    for entry in report["discrepancies"]:
        formula = QElem.from_s(parse_selem(backend, entry["formula"]))
        oracle = QElem.from_s(parse_selem(backend, entry["oracle"]))
        assert q_equal(formula, hat * oracle)


def test_stab_k_check_is_clean():
    code, out, _ = run_cli(
        "stab", "k", "--type", "A2", "--u", "1", "--v", "12", "--check",
    )
    assert code == EXIT_OK
    assert "check: ok" in out


def test_stab_rejects_conflicting_backend_or_family():
    code, _, err = run_cli(
        "stab", "coh", "--type", "A2", "--fgl", "multiplicative",
        "--u", "1", "--v", "1",
    )
    assert code == EXIT_CONFIG and "additive" in err
    code, _, err = run_cli(
        "stab", "k", "--type", "A2", "--family", "x", "--u", "1", "--v", "1",
    )
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_paper_examples_pass_on_a2():
    code, out, _ = run_cli("verify", "--suite", "paper-examples", "--type", "A2")
    assert code == EXIT_OK
    assert "PASS" in out


def test_verify_paper_examples_fail_on_a3_known_entries():
    code, out, _ = run_cli(
        "verify", "--suite", "paper-examples", "--type", "A3", "--out", "json",
    )
    assert code == EXIT_DISCREPANCY
    payload = json.loads(out)
    assert payload["passed"] is False
    ids = sorted({entry["location"][0] for entry in payload["report"]["discrepancies"]})
    assert ids == ["a3-stab-232-1", "a3-stab-232-2"]


def test_verify_paper_examples_honour_family_and_law(monkeypatch):
    """--family and --fgl select corpus entries by their own keys, so the
    A3 t stable-basis rows that fail by design are not run for x."""
    code, out, _ = run_cli(
        "verify", "--suite", "paper-examples", "--type", "A3", "--family", "x",
        "--fgl", "additive",
    )
    assert (code, out) == (EXIT_OK, "suite paper-examples on A3: PASS\n")
    selected = []

    def record(entry, context):
        selected.append(entry["id"])
        return DiscrepancyReport()

    monkeypatch.setattr(verify, "run_corpus_entry", record)
    code, _, _ = run_cli("verify", "--suite", "paper-examples", "--type", "A3", "--family", "t")
    assert code == EXIT_OK
    assert selected == ["a3-stab-232-121", "a3-stab-232-1", "a3-stab-232-2"]
    selected.clear()
    run_cli("verify", "--suite", "paper-examples", "--type", "A2", "--fgl", "multiplicative")
    assert selected and all(entry_id.endswith("-mult") for entry_id in selected)


def test_verify_paper_examples_refuse_an_empty_selection():
    """No corpus entry is on the adjoint lattice: the suite exits 3 instead
    of certifying a pass, and --suite all skips the empty part."""
    code, out, err = run_cli(
        "verify", "--suite", "paper-examples", "--type", "A2", "--lattice", "adjoint",
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "error: no corpus entries for this datum\n"
    code, _, err = run_cli(
        "verify", "--suite", "paper-examples", "--type", "A2", "--family", "tau",
    )
    assert (code, err) == (EXIT_CONFIG, "error: no corpus entries for this datum, family and law\n")
    code, out, _ = run_cli("verify", "--suite", "all", "--type", "A2", "--lattice", "adjoint")
    assert (code, out) == (EXIT_OK, "suite all on A2: PASS\n")


def test_verify_relations_for_t_family():
    code, out, _ = run_cli("verify", "--suite", "relations", "--family", "t")
    assert code == EXIT_OK
    assert "PASS" in out


def test_verify_duality_json_payload_shape():
    code, out, _ = run_cli(
        "verify", "--suite", "duality", "--type", "A2", "--out", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["report"] == {"count": 0, "discrepancies": []}


# ---------------------------------------------------------------------------
# configuration errors -> exit code 3
# ---------------------------------------------------------------------------


# Refusals of outside input, each with the one line it prints.
_REFUSALS = {
    ("mult", "--type", "A0"): "rank must be positive, got 'A0'",
    ("mult", "--type", "B1"): "type B requires rank >= 2",
    ("mult", "--type", "C1"): "type C requires rank >= 2",
    ("mult", "--type", "D3"): "type D requires rank >= 4",
    ("mult", "--type", "F3"): "type F requires rank 4",
    ("mult", "--type", "G3"): "type G requires rank 2",
    ("mult", "--type", "A2", "--u", "0", "--v", "1"): "word indices must be >= 1, got '0'",
    ("mult", "--type", "A2", "--words", "jcompat:"):
        "jcompat needs a non-empty generator subset, e.g. jcompat:1",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("mult", "--type", "A2", "--family", "x", "--u", "1"),
        ("mult", "--type", "A2", "--fgl", "multiplicative", "--family", "t",
         "--u", "1", "--v", "1"),
        ("mult", "--type", "A2", "--family", "nosuch", "--u", "1", "--v", "1"),
        ("mult", "--type", "ZZ9", "--family", "x", "--u", "1", "--v", "1"),
        ("mult", "--type", "A2", "--family", "x", "--u", "7", "--v", "1"),
        ("mult", "--type", "A2", "--family", "x", "--u", "1", "--v", "1",
         "--jobs", "0"),
        ("mult", "--type", "A2", "--cartan", "/nonexistent.json",
         "--family", "x", "--u", "1", "--v", "1"),
        ("restrict", "--type", "A2", "--family", "x", "--w", "1"),
        ("restrict", "--type", "A2", "--family", "x", "--w", "1", "--v", "121",
         "--words", "zigzag"),
        ("stab", "coh", "--type", "A2", "--u", "1"),
        ("verify", "--suite", "nosuch"),
        ("verify", "--suite", "relations", "--family", "custom:/tmp/x.json"),
        ("nosuchcommand",),
        # Each subcommand offers only the flags it reads.
        ("verify", "--suite", "duality", "--type", "A2", "--words", "file:/nonexistent"),
        ("verify", "--suite", "duality", "--type", "A2", "--check"),
        ("verify", "--suite", "duality", "--type", "A2", "--jobs", "2"),
        ("restrict", "--type", "A2", "--family", "x", "--w", "1", "--v", "121",
         "--jobs", "2"),
        ("stab", "coh", "--type", "A2", "--u", "1", "--v", "1", "--jobs", "2"),
        ("stab", "k", "--type", "A2", "--u", "1", "--v", "12", "--jobs", "2"),
        *_REFUSALS,
    ],
)
def test_config_errors_exit_three(argv):
    code, _, err = run_cli(*argv)
    assert code == EXIT_CONFIG
    assert err.startswith("error:")
    if argv in _REFUSALS:
        assert err == f"error: {_REFUSALS[argv]}\n"


@pytest.mark.parametrize(
    "argv, word",
    [
        (("mult", "--type", "A2", "--u", "11", "--v", "1"), "11"),
        (("mult", "--type", "A2", "--u", "1", "--v", "1212"), "1212"),
        (("restrict", "--type", "A2", "--v", "121", "--w", "1212"), "1212"),
        (("stab", "coh", "--type", "A2", "--u", "22", "--v", "1"), "22"),
    ],
)
def test_a_word_that_is_not_reduced_exits_3(argv, word):
    """An element word names its element only when it is reduced; otherwise
    the command reports it in one line and prints nothing."""
    assert run_cli(*argv) == (EXIT_CONFIG, "", f"error: word {word!r} is not reduced\n")


def test_a_reduced_word_is_printed_canonically():
    code, out, _ = run_cli("mult", "--type", "A2", "--u", "212", "--v", "1")
    assert code == EXIT_OK
    assert out.startswith("u=121 v=1 w=121  ")
    assert out == run_cli("mult", "--type", "A2", "--u", "121", "--v", "1")[1]


def test_verify_suite_help_names_every_suite(capsys):
    """The parser lists the suites itself, since the CLI loads
    ``demazure.verify`` only to run one; an unknown name is rejected by
    ``run_suite`` with the list of suites."""
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "|".join(verify.SUITE_NAMES) in capsys.readouterr().out
    code, _, err = run_cli("verify", "--suite", "nosuch")
    assert code == EXIT_CONFIG
    assert err == f"error: unknown suite 'nosuch'; choose from {verify.SUITE_NAMES}\n"


@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
@pytest.mark.parametrize("law", LAWS)
def test_family_law_table_governs_constructors_and_cli(family, law):
    backend = Backend(get_datum("A2"), law)
    laws = BUILTIN_FAMILIES[family].laws
    if law in laws:
        assert BUILTIN_FAMILIES[family](backend).backend is backend
        return
    with pytest.raises(ValueError):
        BUILTIN_FAMILIES[family](backend)
    code, out, err = run_cli("mult", "--type", "A2", "--family", family, "--fgl", law)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: family {family!r} requires the {laws[0]} backend\n"


def test_family_law_table_covers_the_builtin_families():
    assert all(name == entry.name for name, entry in BUILTIN_FAMILIES.items())
    assert all(entry.laws and set(entry.laws) <= set(LAWS) for entry in BUILTIN_FAMILIES.values())


@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
def test_family_without_fgl_uses_its_default_law(family):
    code, out, _ = run_cli(
        "mult", "--type", "A2", "--family", family, "--u", "1", "--v", "1", "--out", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["law"] == BUILTIN_FAMILIES[family].laws[0]


# ---------------------------------------------------------------------------
# the byte contract: stdout digests and exit codes of fixed commands; a
# refactor must leave them unchanged
# ---------------------------------------------------------------------------


CLI_CONTRACT = [
    ("mult --type B2 --family x --fgl additive --out json --check", 0,
     "e4ac732ab637684728af31bb053f90be7cd60fae175f8074540986c5d1e2f9c7"),
    ("mult --type A2 --family tau --out json --check", 0,
     "15daf7748454a51de61f2b6653a3d294f7e056d2237aaaa6f662f34673dbaac3"),
    ("mult --type A2 --family sigma --out json --check", 0,
     "c19d2af090f644767611354baf3d5d876b53c1880198249c05d55741e3ba27d7"),
    ("mult --type B2 --family t --out json --check", 0,
     "0e52a1ad0ae689395265a382b696efc03d47840d98dcb5a56905966491552ad2"),
    ("mult --type B2 --family y --fgl multiplicative --out json --check", 0,
     "815c80af1980af15637d985627744c1a9337cf9590cd426c81f1600465d29881"),
    ("restrict --type A3 --fgl multiplicative --family x --v 2132 --w 12 --out json --check", 0,
     "82a193c7339286abbf25f9c279a078d7699d1727d3b6d379c2ea9025913df843"),
    ("stab coh --type A2 --u 1 --v 1 --out json --check", 2,
     "2b41f5af1a5d55f4c23486e0d13b2a778fc823568a5f040a438d70e6a4e79730"),
    ("stab coh --type A2 --u 1 --v 1 --check", 2,
     "336b89d3207d9c7ea2a274494fb633f71fb522916c94a0208b71eaa6335d38db"),
    ("stab k --type A2 --u 1 --v 12 --out json --check", 0,
     "ebb94738142c53d2a031f01a448e811e9bd6f655a5e10906bc1e307c4c4bc153"),
    ("stab k --type B2 --u 1 --v 21 --out json --check", 0,
     "69f414419080be4a0f44bab004924b44a7c21d23cb47b5fcbf092488f6164107"),
    ("verify --suite paper-examples --type A2 --out json", 0,
     "883fcc5fae12a62f27c734b6d0ad19f7d2a6ef684da8f2fa04cbb9e391f235f7"),
    ("stab coh --type B2 --u 2 --v 12 --out json", 0,
     "0935fa48cb77fa6962320d9785967ab43345cf78bf69e501a3d99833fc721f37"),
    ("stab k --type A2 --u 12 --v 21 --check", 0,
     "e08bc54205e7b8fe70c5dd8ded0de26f42463856d278aafeae66c197bf656cd8"),
    ("mult --type A2 --family t --words jcompat:1 --out json --check", 0,
     "1e103b29ba1e91c77745efece6ede870605e52e46c1728c855daff71d0fc13da"),
    ("mult --type A2 --family sigma --u 12 --v 21 --check", 0,
     "09aaae9e266af8f8848134ad9df171c3ad16f0fd88fc1aca7f2c25213c7a3c5e"),
    ("verify --suite relations --type B2 --out json", 0,
     "4db7a52d254d752d62a3c0c9e3aa1cd69091694cffd36bfff4a9cbd6baeb4d4b"),
]


@pytest.mark.parametrize("command, exit_code, stdout_sha256", CLI_CONTRACT)
def test_cli_bytes_match_the_recorded_contract(command, exit_code, stdout_sha256):
    code, out, err = run_cli(*command.split())
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha256


# ---------------------------------------------------------------------------
# determinism and round-trips
# ---------------------------------------------------------------------------


_POOL_MODULES = ("concurrent.futures", "multiprocessing")  # loaded only by a mult pool
_SLOW_STDLIB_MODULES = ("dataclasses", "inspect", "fractions", "decimal")  # loaded by no command
_VERIFY_MODULES = ("demazure.verify", "random")  # loaded only by the verify command
_CORE_FREE_MODULES = ("typing", "json", "re", "enum")  # loaded by no algebra-core module


@pytest.mark.parametrize(
    "modules, absent",
    [
        ("demazure.cli", _POOL_MODULES + _SLOW_STDLIB_MODULES + _VERIFY_MODULES + ("typing",)),
        ("demazure.dual, demazure.twisted", _SLOW_STDLIB_MODULES + _CORE_FREE_MODULES),
    ],
    ids=["cli", "dual-twisted"],
)
def test_import_loads_no_pool_or_slow_stdlib_module(modules, absent):
    """Every ``demazure`` process pays for its imports; in a fresh ``python
    -S`` these imports must leave the listed modules unloaded."""
    code = f"import sys, {modules}; print(*(m for m in {absent!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _run_subprocess(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "demazure.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


_B2_T_CHECK = "mult --type B2 --family t --out json --check"


@pytest.mark.parametrize(
    "command, stdout_sha256",
    [
        ("mult --type A2 --fgl multiplicative --family x --out json --check", None),
        # Uneven rows and hat denominators; the JSON must match the contract.
        (_B2_T_CHECK, {c: h for c, _, h in CLI_CONTRACT}[_B2_T_CHECK]),
        (_B2_T_CHECK.replace("json", "text"), None),
    ],
    ids=["A2-x-multiplicative-json", "B2-t-json", "B2-t-text"],
)
def test_output_bytes_identical_across_runs_and_worker_counts(command, stdout_sha256):
    base = command.split()
    code1, out1 = _run_subprocess(*base, "--jobs", "1")
    code2, out2 = _run_subprocess(*base, "--jobs", "2")
    code3, out3 = _run_subprocess(*base, "--jobs", "1")
    assert code1 == code2 == code3 == EXIT_OK
    assert out1 == out2 == out3
    if stdout_sha256 is not None:
        assert hashlib.sha256(out1.encode("utf-8")).hexdigest() == stdout_sha256


def test_mult_check_reports_a_wrong_oracle_pair_at_both_orders(monkeypatch):
    """A mutant oracle, wrong on the one unordered pair {1, 2} only: the table
    check computes that product once, for (1, 2), and must still report both
    (1, 2, w) and (2, 1, w); a single product is checked in the order asked."""
    honest = DualBasis.product_oracle
    calls = []

    def mutant(self, u, v):
        calls.append((u.word, v.word))
        row = dict(honest(self, u, v))
        if {u.word, v.word} == {(1,), (2,)}:
            row[self.datum.longest_element] = QElem.from_int(self.backend, 7)
        return row

    monkeypatch.setattr(DualBasis, "product_oracle", mutant)
    argv = ("mult", "--type", "A2", "--family", "x", "--out", "json", "--check", "--jobs", "1")
    code, out, _ = run_cli(*argv)
    assert code == EXIT_DISCREPANCY
    report = json.loads(out)["report"]
    locations = [d["location"] for d in report["discrepancies"]]
    assert locations == [["1", "2", "121"], ["2", "1", "121"]]
    assert len(calls) == len(set(calls)) == 6 * 7 // 2
    calls.clear()
    code, out, _ = run_cli(
        "mult", "--type", "A2", "--family", "x", "--u", "2", "--v", "1", "--check"
    )
    assert code == EXIT_DISCREPANCY
    assert calls == [((2,), (1,))]
    assert "  at 2,1,121: formula=0 oracle=7" in out.splitlines()


def test_pool_output_does_not_depend_on_the_start_method(monkeypatch):
    """Spawn (the default on macOS) and forkserver workers share nothing with
    the parent, so the row task must be importable and its arguments and
    results picklable; the bytes must equal the serial run's."""
    argv = [
        "mult", "--type", "A2", "--fgl", "multiplicative", "--family", "x",
        "--out", "json", "--check",
    ]
    serial = run_cli(*argv, "--jobs", "1")
    pools = _use_spawn_pools(monkeypatch)
    assert run_cli(*argv, "--jobs", "2") == serial
    assert serial[0] == EXIT_OK
    assert pools == [2]


def _use_spawn_pools(monkeypatch) -> list:
    """Make ``mult`` pools spawn their workers, with two usable CPUs even on a
    one-CPU machine; returns the list of the pools' sizes."""
    pools = []

    def spawn_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return ProcessPoolExecutor(
            *args, mp_context=multiprocessing.get_context("spawn"), **kwargs
        )

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pools


def test_custom_family_file_runs_in_spawned_workers(tmp_path, monkeypatch):
    """A spawned worker rebuilds the session from its config alone, so it
    reads the family file itself; the unit family has no quadratic
    constants, so its oracle eliminates in Q and its walks expand their
    moves by elimination."""
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(UNIT_SPEC), encoding="utf-8")
    argv = ["mult", "--type", "A2", "--family", f"custom:{path}", "--out", "json", "--check"]
    serial = run_cli(*argv, "--jobs", "1")
    pools = _use_spawn_pools(monkeypatch)
    assert run_cli(*argv, "--jobs", "2") == serial
    assert serial[0] == EXIT_OK
    assert json.loads(serial[1])["report"]["count"] == 0
    assert pools == [2]


def test_out_check_and_jobs_share_one_session(monkeypatch):
    """The session's basis depends on the datum, family, law and words only,
    so output flags, the check and the worker count reuse it."""
    built = []

    class CountedBasis(DualBasis):
        def __init__(self, algebra):
            built.append(algebra)
            super().__init__(algebra)

    monkeypatch.setattr(cli, "DualBasis", CountedBasis)
    cli._session_basis.cache_clear()
    try:
        base = ("mult", "--type", "A2", "--family", "y", "--u", "1", "--v", "2")
        assert run_cli(*base)[0] == EXIT_OK
        assert run_cli(*base, "--out", "json", "--check", "--jobs", "2")[0] == EXIT_OK
        assert len(built) == 1
    finally:
        cli._session_basis.cache_clear()


@pytest.mark.parametrize(
    "jobs,tasks,cpus,expected",
    [
        (1, 36, 8, 1),  # --jobs 1 stays serial
        (4, 36, 2, 2),  # capped by the CPU count
        (64, 3, 8, 3),  # capped by the number of table rows
        (4, 1, 8, 1),  # a single row (one --u/--v product) runs in-process
        (4, 36, None, 1),  # unknown CPU count: one worker
        (3, 36, 8, 3),
    ],
)
def test_worker_count_caps_jobs(jobs, tasks, cpus, expected):
    assert worker_count(jobs, tasks, cpus) == expected


def test_worker_cap_counts_the_usable_cpus(monkeypatch):
    """A process pinned to one CPU of a large host runs a table in-process."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert cli.usable_cpus() == 1
    pools = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda **kwargs: pools.append(kwargs)
    )
    argv = ("mult", "--type", "A2", "--family", "x", "--out", "json", "--check")
    assert run_cli(*argv, "--jobs", "4") == run_cli(*argv, "--jobs", "1")
    assert pools == []
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli.usable_cpus() == 64


def test_json_output_round_trips_byte_identically():
    for argv in (
        ("mult", "--type", "A2", "--family", "x", "--out", "json"),
        ("restrict", "--type", "A2", "--family", "x", "--w", "1", "--v", "121",
         "--out", "json"),
        ("stab", "coh", "--type", "A2", "--u", "1", "--v", "1", "--out", "json"),
        ("verify", "--suite", "duality", "--type", "A2", "--out", "json"),
    ):
        code, out, _ = run_cli(*argv)
        assert code == EXIT_OK
        assert dumps_canonical(json.loads(out)) == out


# ---------------------------------------------------------------------------
# word policies
# ---------------------------------------------------------------------------


def test_words_file_policy_matches_lexmin_for_braid_stable_family(tmp_path):
    table = {"": "", "1": "1", "2": "2", "12": "12", "21": "21", "121": "212"}
    path = tmp_path / "words.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    base = ("mult", "--type", "A2", "--family", "x", "--out", "json")
    _, out_default, _ = run_cli(*base)
    code, out_file, _ = run_cli(*base, "--words", f"file:{path}")
    assert code == EXIT_OK
    assert out_file == out_default


def test_words_file_must_cover_every_element(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"": "", "1": "1"}), encoding="utf-8")
    code, _, err = run_cli(
        "restrict", "--type", "A2", "--family", "x", "--w", "1", "--v", "121",
        "--words", f"file:{path}",
    )
    assert code == EXIT_CONFIG
    assert "cover" in err


_A2_WORDS = {"": "", "1": "1", "2": "2", "12": "12", "21": "21", "121": "121"}


@pytest.mark.parametrize(
    "table, message",
    [
        ([1], "must map words to words"),
        ({"": 5}, "must map words to words"),
        # Two keys for one element: the later one must not silently win.
        ({**_A2_WORDS, "212": "212"}, "keys '121' and '212' name one element"),
    ],
    ids=["list", "int-word", "one-element-twice"],
)
def test_words_file_of_the_wrong_shape_exits_3(tmp_path, table, message):
    path = tmp_path / "words.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    code, _, err = run_cli(
        "restrict", "--type", "A2", "--family", "x", "--w", "1", "--v", "121",
        "--words", f"file:{path}",
    )
    assert code == EXIT_CONFIG
    assert err.startswith("error: word file") and message in err


def test_jcompat_policy_keeps_restrictions_for_x_family():
    base = (
        "restrict", "--type", "A2", "--family", "x", "--w", "1", "--v", "121",
        "--out", "json",
    )
    _, out_default, _ = run_cli(*base)
    code, out_j, _ = run_cli(*base, "--words", "jcompat:1", "--check")
    assert code == EXIT_OK
    assert (
        json.loads(out_j)["value"] == json.loads(out_default)["value"]
    )


# ---------------------------------------------------------------------------
# custom families and explicit Cartan matrices
# ---------------------------------------------------------------------------


UNIT_SPEC = {
    "name": "unit",
    "law": "additive",
    "a": {"num": [[1, 0, 0, 0]], "den": []},
    "b": {"num": [[1, 0, 0, 0]], "den": []},
    "b_inv": {"num": [[1, 0, 0, 0]], "den": []},
}

SIGMA_SPEC = {
    "name": "sigma-file",
    "law": "additive",
    "a": {"num": [[-1, 0, 0, 0]], "den": [["x_root", 1]]},
    "b": {"num": [[1, 0, 0, 0], [1, 1, 0, 0]], "den": [["x_root", 1]]},
    "b_inv": {"num": [[1, 1, 0, 0]], "den": [["one_plus_root", 1]]},
}


# stdout of ``mult --type A3 --family custom:unit.json --out json --check``,
# recorded when the unit family's formula columns and Billey rows were still
# summed over the subwords of each word (and re-recorded when "family" became
# the family's own name, "custom:unit", the only line that changed).
_UNIT_A3_CHECK_SHA256 = "5f295133ffe6e33698456d62c3fdc8d79fd9034d61340d4530c1fcf6da233365"
# The same with ``--words jcompat:2``, recorded when each b-row was still
# built from the words composed in Q_W.
_UNIT_A3_JCOMPAT_CHECK_SHA256 = "b379446db630e5d61cba20642ccd6aa6f6c29d0eec666de471e6cea3fd6ff55a"


def _unit_a3_table(tmp_path, monkeypatch, path, *extra):
    """stdout of ``mult --type A3 --family custom:PATH --out json --check``
    plus ``extra``, with the unit family written to ``tmp_path/unit.json``
    and ``tmp_path`` the working directory."""
    (tmp_path / "unit.json").write_text(json.dumps(UNIT_SPEC), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    cli._session_basis.cache_clear()  # a relative token must not reuse a session
    try:
        code, out, err = run_cli(
            "mult", "--type", "A3", "--family", f"custom:{path}", *extra,
            "--out", "json", "--check",
        )
    finally:
        cli._session_basis.cache_clear()
    assert (code, err) == (EXIT_OK, "")
    return out


def _unit_a3_table_digest(tmp_path, monkeypatch, *extra):
    out = _unit_a3_table(tmp_path, monkeypatch, "unit.json", *extra)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_unit_family_table_bytes_are_pinned(tmp_path, monkeypatch):
    """The unit family has no quadratic constants, so its walks expand each
    move by elimination; the checked A3 table must keep the bytes of the
    per-subword sums."""
    assert _unit_a3_table_digest(tmp_path, monkeypatch) == _UNIT_A3_CHECK_SHA256


def test_unit_family_table_on_j_compatible_words_bytes_are_pinned(tmp_path, monkeypatch):
    """The unit family breaks the braid relations, and some prefixes of the
    J-compatible words are chosen by no element: the b-rows grown from the
    words' own prefixes must keep the bytes of the composed words."""
    digest = _unit_a3_table_digest(tmp_path, monkeypatch, "--words", "jcompat:2")
    assert digest == _UNIT_A3_JCOMPAT_CHECK_SHA256


def test_a_custom_table_names_the_family_not_the_path(tmp_path, monkeypatch):
    """"family" is the family's own name, so one table has one set of bytes
    however the path to its file is spelled."""
    relative = _unit_a3_table(tmp_path, monkeypatch, "unit.json")
    absolute = _unit_a3_table(tmp_path, monkeypatch, tmp_path / "unit.json")
    assert json.loads(relative)["family"] == "custom:unit"
    assert relative == absolute
    restrictions = []
    for path in ("unit.json", tmp_path / "unit.json"):
        cli._session_basis.cache_clear()
        restrictions.append(run_cli(
            "restrict", "--type", "A2", "--family", f"custom:{path}",
            "--v", "121", "--w", "1", "--out", "json",
        ))
    cli._session_basis.cache_clear()
    (code, out, _), second = restrictions
    assert code == EXIT_OK and json.loads(out)["family"] == "custom:unit"
    assert second == restrictions[0]


@pytest.mark.parametrize(
    "family, law",
    [(name, law) for name, entry in BUILTIN_FAMILIES.items() for law in entry.laws],
)
def test_custom_family_file_reproduces_each_builtin_family(tmp_path, family, law):
    """A built-in entry written to a family file under one of its laws gives
    the built-in token's records, and its checked table is clean."""
    spec = {"name": family, "law": law, **BUILTIN_FAMILIES[family].spec}
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    base = ("mult", "--type", "A2", "--out", "json", "--check")
    code_f, out_file, err = run_cli(*base, "--family", f"custom:{path}")
    code_b, out_builtin, _ = run_cli(*base, "--family", family, "--fgl", law)
    assert code_f == code_b == EXIT_OK, err
    from_file, builtin = json.loads(out_file), json.loads(out_builtin)
    assert from_file["law"] == law
    assert from_file["records"] == builtin["records"]
    assert from_file["report"] == builtin["report"] == {"count": 0, "discrepancies": []}


def test_custom_family_rejects_wrong_law(tmp_path):
    spec = dict(SIGMA_SPEC, law="multiplicative")
    path = tmp_path / "bad_law.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        "mult", "--type", "A2", "--fgl", "additive", "--family", f"custom:{path}",
        "--u", "1", "--v", "2",
    )
    assert code == EXIT_CONFIG
    assert "law" in err


def test_custom_family_file_sets_the_default_law(tmp_path):
    """Without --fgl a custom family runs on the law its file declares."""
    spec = {
        "name": "x-file",
        "law": "multiplicative",
        "a": {"num": [[1, 0, 0, 0]], "den": [["x_root", 1]]},
        "b": {"num": [[-1, 0, 0, 0]], "den": [["x_root", 1]]},
        "b_inv": {"num": [[-1, 1, 0, 0]], "den": []},
    }
    path = tmp_path / "x_multiplicative.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    base = ("mult", "--type", "A2", "--family", f"custom:{path}", "--u", "1", "--v", "2",
            "--out", "json", "--check")
    code_d, out_default, err = run_cli(*base)
    code_f, out_fgl, _ = run_cli(*base, "--fgl", "multiplicative")
    assert code_d == code_f == EXIT_OK, err
    assert json.loads(out_default)["law"] == "multiplicative"
    assert json.loads(out_default)["records"] == json.loads(out_fgl)["records"]


@pytest.mark.parametrize(
    "spec,message",
    [
        ([1, 2], " must hold a JSON object"),
        (dict(SIGMA_SPEC, a=[1]),
         ", coefficient 'a' must be a JSON object with 'num' and 'den' lists"),
        (dict(SIGMA_SPEC, a={"num": 5}),
         ", coefficient 'a' is malformed: 'int' object is not iterable"),
        (dict(SIGMA_SPEC, a={"num": [[-1.5, 0, 0, 0]], "den": [["x_root", 1]]}),
         ", coefficient 'a' is malformed: 'float' object cannot be interpreted as an integer"),
        (dict(SIGMA_SPEC, law="tropical"),
         " declares law 'tropical', not one of ('additive', 'multiplicative')"),
    ],
    ids=["list", "a-list", "a-num-int", "a-float-coeff", "law-tropical"],
)
def test_custom_family_of_the_wrong_shape_exits_3(tmp_path, spec, message):
    path = tmp_path / "bad_shape.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        "mult", "--type", "A2", "--family", f"custom:{path}",
        "--u", "1", "--v", "2",
    )
    assert code == EXIT_CONFIG
    assert err == f"error: custom family {str(path)!r}{message}\n"


def test_custom_family_rejects_broken_inverse(tmp_path):
    spec = dict(SIGMA_SPEC)
    spec["b_inv"] = {"num": [[1, 0, 0, 0]], "den": []}
    path = tmp_path / "bad_inverse.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        "mult", "--type", "A2", "--family", f"custom:{path}",
        "--u", "1", "--v", "2",
    )
    assert code == EXIT_CONFIG
    assert "invalid custom family" in err


@pytest.mark.parametrize(
    "fgl,term,message",
    [
        ("additive", [-1, -2, 0, 0], "negative exponent of x_alpha"),
        ("multiplicative", [1, -1, 0, 0], "negative exponent of x_alpha"),
        ("additive", [1, 0, -1, 0], "negative exponent of h"),
        ("additive", [1, 10**9, 0, 0], "outside"),
        ("multiplicative", [1, 0, 2**14, 0], "outside"),
        ("multiplicative", [1, 0, 0, -(2**14) - 1], "outside"),
    ],
    ids=["neg-alpha-add", "neg-alpha-mult", "neg-h", "huge-alpha", "huge-v", "huge-e"],
)
def test_custom_family_numerator_exponents_are_checked_before_use(tmp_path, fgl, term, message):
    spec = dict(SIGMA_SPEC, law=fgl, a={"num": [term], "den": [["x_root", 1]]})
    path = tmp_path / "bad_exponent.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        "mult", "--type", "A1", "--fgl", fgl, "--family", f"custom:{path}",
        "--u", "1", "--v", "1",
    )
    assert code == EXIT_CONFIG
    assert message in err


@pytest.mark.parametrize(
    "kind,message",
    [
        ("nonsense", "unknown factor kind 'nonsense'"),
        ("hat_multiplicative", "hat_multiplicative factors require the multiplicative backend"),
    ],
    ids=["unknown-kind", "other-law"],
)
def test_custom_family_denominator_kinds_are_checked_when_read(tmp_path, kind, message):
    """The reader names the coefficient; a check at first use could not."""
    spec = dict(SIGMA_SPEC, a={"num": [[-1, 0, 0, 0]], "den": [[kind, 1]]})
    path = tmp_path / "bad_kind.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        "mult", "--type", "A1", "--family", f"custom:{path}", "--u", "1", "--v", "1",
    )
    assert code == EXIT_CONFIG
    assert f"coefficient 'a': {message}" in err


def test_custom_family_takes_a_laurent_power_of_v(tmp_path):
    """b = -v^-1 / x_alpha and b_inv = -v x_alpha are inverse only when the
    numerator term [-1, 0, -1, 0] really means -v^-1."""
    spec = {
        "name": "x-over-v",
        "law": "multiplicative",
        "a": {"num": [[1, 0, 0, 0]], "den": [["x_root", 1]]},
        "b": {"num": [[-1, 0, -1, 0]], "den": [["x_root", 1]]},
        "b_inv": {"num": [[-1, 1, 1, 0]], "den": []},
    }
    path = tmp_path / "x_over_v.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(
        "mult", "--type", "A1", "--fgl", "multiplicative", "--family", f"custom:{path}",
        "--u", "1", "--v", "1", "--out", "json",
    )
    assert code == EXIT_OK, err
    rows = json.loads(out)["records"]
    assert [(row["w"], row["value"]["num"]) for row in rows] == [("1", "1 * E(-2) v + -1 * v")]


def test_cartan_file_lattice_key_is_honoured(tmp_path):
    """The file's "lattice" key picks the lattice unless --lattice is given."""
    path = tmp_path / "a2_adjoint.json"
    path.write_text(
        json.dumps({"cartan": [[2, -1], [-1, 2]], "lattice": "adjoint", "label": "A2"}),
        encoding="utf-8",
    )
    args = ("--family", "x", "--fgl", "multiplicative", "--out", "json")
    code, from_file, _ = run_cli("mult", "--cartan", str(path), *args)
    assert code == EXIT_OK
    code, from_type, _ = run_cli("mult", "--type", "A2", "--lattice", "adjoint", *args)
    assert code == EXIT_OK
    assert json.loads(from_file)["lattice"] == "adjoint"
    assert from_file == from_type
    code, overridden, _ = run_cli(
        "mult", "--cartan", str(path), "--lattice", "simply-connected", *args
    )
    code_sc, simply_connected, _ = run_cli("mult", "--type", "A2", *args)
    assert code == code_sc == EXIT_OK
    assert json.loads(overridden)["lattice"] == "simply-connected"
    assert overridden == simply_connected


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"cartan": [[2, -1], [-1, 2]], "lattice": 5},
         "lattice must be one of ('simply-connected', 'adjoint'), got 5"),
        ({"cartan": 5}, "'cartan' must be a list of rows, each a list of integers"),
        ({"cartan": [1, 2]}, "'cartan' must be a list of rows, each a list of integers"),
        ({"cartan": [[2, -1], [-1, 2]], "label": 7}, "'label' must be a string, got 7"),
        ([[2, -1], [-1, 2]], "cannot build a root datum from list"),
        ({"lattice": "adjoint"}, "explicit datum requires a 'cartan' key"),
        ({"cartan": [[2, -1.5], [-1, 2]]}, "Cartan entry (1,2) must be an integer"),
    ],
    ids=["lattice-int", "cartan-int", "cartan-flat", "label-int", "list", "no-cartan",
         "cartan-float"],
)
def test_cartan_file_of_the_wrong_shape_exits_3(tmp_path, spec, message):
    path = tmp_path / "bad_datum.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli("mult", "--cartan", str(path), "--u", "1", "--v", "1")
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")


@pytest.mark.parametrize("source", ["type", "cartan"])
def test_rank_above_the_cap_exits_3_at_once(tmp_path, source):
    """The rank cap is checked before the finite-type scan, which visits all
    2^n principal submatrices, so a rank-40 datum is refused at once."""
    if source == "type":
        argv = ["mult", "--type", "A40"]
    else:
        path = tmp_path / "a40.json"
        path.write_text(json.dumps({"cartan": named_cartan_matrix("A40")}), encoding="utf-8")
        argv = ["mult", "--cartan", str(path)]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "demazure.cli", *argv],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == EXIT_CONFIG
    assert "rank 40 exceeds the cap" in proc.stderr


def test_cartan_file_builds_custom_datum(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(
        json.dumps({"cartan": [[2, -2], [-1, 2]], "label": "B2-file"}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        "mult", "--cartan", str(path), "--family", "x",
        "--u", "1", "--v", "1", "--out", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["datum"] == "B2-file"
    assert payload["records"]
    code, _, err = run_cli(
        "mult", "--type", "A2", "--cartan", str(path), "--family", "x",
        "--u", "1", "--v", "1",
    )
    assert code == EXIT_CONFIG
    assert "mutually exclusive" in err

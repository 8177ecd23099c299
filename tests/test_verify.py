"""The named property suites and the golden corpus runner."""

import json

import pytest

from conftest import get_datum
from demazure import verify
from demazure.cli import main
from demazure.dual import DiscrepancyReport, DualBasis
from demazure.formal import ADDITIVE, QElem
from demazure.rootdata import build_root_datum
from demazure.serialize import dumps_canonical
from demazure.verify import (
    SUITE_NAMES,
    load_corpus,
    run_suite,
    suite_duality,
    suite_leibniz,
    suite_paper_examples,
    suite_relations,
)


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("relations", "leibniz", "duality", "paper-examples", "all")


def test_relations_suite_clean_on_a2_all_families():
    report = suite_relations(get_datum("A2"))
    assert report.is_empty, report.to_json()


def test_relations_suite_clean_on_b2_for_t_and_tau():
    report = suite_relations(get_datum("B2"), families=("t", "tau"))
    assert report.is_empty, report.to_json()


def test_leibniz_suite_clean_on_a2():
    report = suite_leibniz(get_datum("A2"))
    assert report.is_empty, report.to_json()


def test_duality_suite_clean_on_a2():
    report = suite_duality(get_datum("A2"))
    assert report.is_empty, report.to_json()


def test_duality_failure_is_reported_at_printable_words(monkeypatch):
    def always_zero(self, u, v):
        return QElem.from_int(self.backend, 0)

    monkeypatch.setattr(DualBasis, "duality_pairing", always_zero)
    report = suite_duality(get_datum("A1"), families=("x",), laws=(ADDITIVE,))
    payload = json.loads(dumps_canonical(report.to_json()))
    assert [entry["location"] for entry in payload["discrepancies"]] == [
        ["duality", "A1", ADDITIVE, "x", "", ""],
        ["duality", "A1", ADDITIVE, "x", "1", "1"],
    ]


def test_paper_examples_pass_on_a1_a2():
    for label in ("A1", "A2"):
        report = suite_paper_examples(get_datum(label))
        assert report.is_empty, (label, report.to_json())


def test_paper_examples_on_a3_fail_exactly_at_the_published_discrepancies():
    """Two stored stable-basis rows keep their published values; both routes
    here compute something else, so the corpus run must flag exactly those."""
    report = suite_paper_examples(get_datum("A3"))
    ids = sorted({entry.location[0] for entry in report.entries})
    assert ids == ["a3-stab-232-1", "a3-stab-232-2"]


def test_paper_examples_select_entries_by_cartan_matrix_not_label(tmp_path, capsys, monkeypatch):
    """An unlabeled A2 Cartan file runs the A2 entries, not every entry (the
    A3 rows among them fail by design); no entry is on the adjoint lattice."""
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}), encoding="utf-8")
    assert main(["verify", "--suite", "paper-examples", "--cartan", str(path)]) == 0
    assert capsys.readouterr().out == "suite paper-examples on custom: PASS\n"
    selected = []

    def record(entry, context):
        selected.append(entry["id"])
        return DiscrepancyReport()

    monkeypatch.setattr(verify, "run_corpus_entry", record)
    suite_paper_examples(build_root_datum({"cartan": [[2, -1], [-1, 2]]}))
    assert selected == [e["id"] for e in load_corpus()["entries"] if e["datum"] == "A2"]
    selected.clear()
    suite_paper_examples(get_datum("A2", "adjoint"))
    assert selected == []


def test_run_suite_all_is_the_concatenation():
    datum = get_datum("A2")
    combined = run_suite("all", datum)
    assert combined.is_empty


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nosuch", get_datum("A2"))
    with pytest.raises(ValueError):
        suite_relations(get_datum("A2"), families=("nosuch",))


def test_corpus_is_well_formed():
    corpus = load_corpus()
    assert corpus["format"] == "demazure-golden-1"
    entries = corpus["entries"]
    ids = [entry["id"] for entry in entries]
    assert len(ids) == len(set(ids))
    assert len(entries) >= 100
    kinds = {entry["kind"] for entry in entries}
    assert kinds == {
        "product",
        "constant",
        "restriction",
        "stab-coh",
        "dual-class",
        "leibniz",
    }
    for entry in entries:
        assert entry["datum"] in ("A1", "A2", "A3")
        assert entry["law"] in ("additive", "multiplicative")

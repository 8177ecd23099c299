"""Named property suites and the bundled worked-example corpus.

Every suite returns a :class:`~demazure.dual.DiscrepancyReport`.  An empty
report certifies that each check in the suite passed; a non-empty report
lists every failing location together with the two values that disagreed.
The same suites back the ``verify`` subcommand of the command-line tool and
the test suite, so each property is stated exactly once.

Suites
------

``relations``
    Quadratic and braid relations for every applicable operator family on
    the chosen root datum, plus vanishing of the two-root kappa classes.
``leibniz``
    The generalized Leibniz rule on seeded pseudo-random ring elements for
    all short words, together with the closed-form cross-check of the
    full-subset coefficients.
``duality``
    The pairing between a Z-basis and its dual basis is the identity
    matrix.
``paper-examples``
    The worked-example corpus shipped as ``data/golden.json``: every entry
    on the root datum, and of the chosen families and laws if any are given,
    is recomputed from scratch and compared exactly.  :func:`run_suite`
    refuses a selection of no entry, so an empty run never passes; ``all``
    skips it instead.  The corpus keeps the
    published values verbatim, including two A3 stable-basis entries whose
    published values both computation routes contradict; those entries are
    expected to appear in the report (see the test suite for the corrected
    values).
``all``
    All of the above.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Mapping, Sequence

from .dual import CohStableBasis, DiscrepancyReport, DualBasis
from .formal import (
    ADDITIVE,
    LAWS,
    Backend,
    QElem,
    SElem,
    kappa_pair,
)
from .rootdata import RootDatum, WeylElement, Word, build_root_datum, named_cartan_matrix
from .serialize import parse_qelem, parse_word, word_to_str
from .twisted import BUILTIN_FAMILIES, Algebra

SUITE_NAMES = ("relations", "leibniz", "duality", "paper-examples", "all")

# The leibniz suite checks every word up to this length, with this many
# seeded (p, q) samples per word, drawn from a generator seeded by this string.
LEIBNIZ_MAX_LEN = 3
LEIBNIZ_SAMPLES = 2
LEIBNIZ_SEED = "demazure-verify"


def _combos(
    families: Sequence[str] | None, laws: Sequence[str] | None
) -> list[tuple[str, str]]:
    """All (family, law) pairs compatible with the optional filters."""
    chosen_families = tuple(families) if families else tuple(BUILTIN_FAMILIES)
    chosen_laws = tuple(laws) if laws else LAWS
    out = []
    for name in chosen_families:
        if name not in BUILTIN_FAMILIES:
            raise ValueError(f"unknown family {name!r}")
        for law in BUILTIN_FAMILIES[name].laws:
            if law in chosen_laws:
                out.append((name, law))
    return out


def _algebra(
    datum: RootDatum, family: str, law: str, words: Mapping[WeylElement, Word] | None = None
) -> Algebra:
    return Algebra(BUILTIN_FAMILIES[family](Backend(datum, law)), words)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def suite_relations(
    datum: RootDatum,
    families: Sequence[str] | None = None,
    laws: Sequence[str] | None = None,
) -> DiscrepancyReport:
    """Quadratic/braid relations per family and kappa-class vanishing."""
    report = DiscrepancyReport()
    label = datum.label or "?"
    for family, law in _combos(families, laws):
        algebra = _algebra(datum, family, law)
        for entry in algebra.verify_relations():
            if not entry["passed"]:
                report.add(
                    ("relations", label, law, family, entry["name"]),
                    entry.get("detail", "nonzero residual"),
                    "0",
                )
    for law in laws or LAWS:
        backend = Backend(datum, law)
        for i in range(1, datum.rank + 1):
            for j in range(1, datum.rank + 1):
                if i == j or datum.cartan[i - 1][j - 1] * datum.cartan[j - 1][i - 1] != 1:
                    continue
                value = kappa_pair(backend, i, j)
                if not value.is_zero():
                    report.add(
                        ("kappa-pair", label, law, f"{i}{j}"),
                        QElem.from_s(value),
                        QElem.from_int(backend, 0),
                    )
    return report


# ---------------------------------------------------------------------------
# leibniz
# ---------------------------------------------------------------------------


def _seeded_selem(rng: random.Random, backend: Backend, nterms: int, max_exp: int) -> SElem:
    width = backend.rank + 1
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(nterms):
        if backend.law == ADDITIVE:
            key = tuple(rng.randint(0, max_exp) for _ in range(width))
        else:
            key = tuple(rng.randint(-max_exp, max_exp) for _ in range(width))
        terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
    return SElem(backend, terms)


def _all_words(rank: int, max_len: int) -> list[Word]:
    out: list[Word] = []
    for length in range(max_len + 1):
        out.extend(itertools.product(range(1, rank + 1), repeat=length))
    return out


def check_generalized_leibniz(
    algebra: Algebra,
    word: Word,
    p: QElem,
    q: QElem,
    report: DiscrepancyReport,
    location: tuple = (),
) -> None:
    """Record a discrepancy if Z_I(pq) != sum_{E,F} Z_E(p) z_{E,F} Z_F(q)."""
    backend = algebra.backend
    k = len(word)
    positions = range(1, k + 1)
    subsets = [
        frozenset(combo)
        for size in range(k + 1)
        for combo in itertools.combinations(positions, size)
    ]
    sub_elems = {
        E: algebra.compose_word(tuple(word[j - 1] for j in sorted(E))) for E in subsets
    }
    lhs = algebra.compose_word(word).act(p * q)
    acts_p = {E: sub_elems[E].act(p) for E in subsets}
    acts_q = {F: sub_elems[F].act(q) for F in subsets}
    rhs = QElem.from_int(backend, 0)
    for E in subsets:
        if acts_p[E].is_zero():
            continue
        inner = QElem.from_int(backend, 0)
        for F in subsets:
            if acts_q[F].is_zero():
                continue
            coeff = algebra.leibniz_coefficient(word, E, F)
            if coeff.is_zero():
                continue
            inner = inner + coeff * acts_q[F]
        rhs = rhs + acts_p[E] * inner
    report.compare(location + (word_to_str(word),), rhs, lhs)


def suite_leibniz(
    datum: RootDatum,
    families: Sequence[str] | None = None,
    laws: Sequence[str] | None = None,
) -> DiscrepancyReport:
    """Generalized Leibniz rule on seeded random pairs, plus the closed-form
    identity z_{[k],E} = Billey product for every subset E."""
    report = DiscrepancyReport()
    label = datum.label or "?"
    combos = _combos(families, laws) if families else [("x", law) for law in (laws or LAWS)]
    words = _all_words(datum.rank, LEIBNIZ_MAX_LEN)
    for family, law in combos:
        algebra = _algebra(datum, family, law)
        rng = random.Random(f"{LEIBNIZ_SEED}/{label}/{family}/{law}")
        for word in words:
            for index in range(LEIBNIZ_SAMPLES):
                p = QElem.from_s(_seeded_selem(rng, algebra.backend, 2, 1))
                q = QElem.from_s(_seeded_selem(rng, algebra.backend, 2, 1))
                check_generalized_leibniz(
                    algebra,
                    word,
                    p,
                    q,
                    report,
                    ("leibniz", label, law, family, f"sample{index}"),
                )
            full = frozenset(range(1, len(word) + 1))
            for size in range(len(word) + 1):
                for combo in itertools.combinations(range(1, len(word) + 1), size):
                    subset = frozenset(combo)
                    report.compare(
                        (
                            "billey",
                            label,
                            law,
                            family,
                            word_to_str(word),
                            "".join(map(str, sorted(subset))),
                        ),
                        algebra.billey_closed_form(word, subset),
                        algebra.leibniz_coefficient(word, full, subset),
                    )
    return report


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def suite_duality(
    datum: RootDatum,
    families: Sequence[str] | None = ("x", "y"),
    laws: Sequence[str] | None = None,
) -> DiscrepancyReport:
    """<Z*_{I_u}, Z_{I_v}> = delta_{u,v} over the full element grid."""
    report = DiscrepancyReport()
    label = datum.label or "?"
    for family, law in _combos(families, laws):
        basis = DualBasis(_algebra(datum, family, law))
        backend = basis.backend
        for u in datum.elements:
            for v in datum.elements:
                report.compare(
                    ("duality", label, law, family, word_to_str(u.word), word_to_str(v.word)),
                    basis.duality_pairing(u, v),
                    QElem.from_int(backend, 1 if u == v else 0),
                )
    return report


# ---------------------------------------------------------------------------
# worked-example corpus
# ---------------------------------------------------------------------------


def load_corpus() -> dict:
    """Load the bundled worked-example corpus (``data/golden.json``)."""
    from importlib import resources  # imported here: it costs the CLI's start-up

    text = resources.files(__package__).joinpath("data/golden.json").read_text("utf-8")
    return json.loads(text)


class _CorpusContext:
    """Caches for root data and bases shared across corpus entries."""

    def __init__(self) -> None:
        self._data: dict = {}
        self._bases: dict = {}

    def datum(self, label: str, lattice: str) -> RootDatum:
        key = (label, lattice)
        if key not in self._data:
            self._data[key] = build_root_datum(label, lattice=lattice)
        return self._data[key]

    def basis(
        self,
        label: str,
        lattice: str,
        law: str,
        family: str,
        words: Mapping[str, str] | None = None,
    ) -> DualBasis:
        words = words or {}
        key = (label, lattice, law, family, tuple(sorted(words.items())))
        if key not in self._bases:
            datum = self.datum(label, lattice)
            overrides = {
                datum.element_by_word(parse_word(k)): parse_word(v) for k, v in words.items()
            }
            self._bases[key] = DualBasis(_algebra(datum, family, law, overrides))
        return self._bases[key]


def run_corpus_entry(entry: Mapping, context: _CorpusContext | None = None) -> DiscrepancyReport:
    """Recompute one corpus entry and compare it against the stored value."""
    context = context or _CorpusContext()
    report = DiscrepancyReport()
    entry_id = entry["id"]
    label = entry["datum"]
    lattice = entry.get("lattice", "simply-connected")
    law = entry["law"]
    datum = context.datum(label, lattice)
    backend = Backend(datum, law)
    kind = entry["kind"]
    words = entry.get("words")

    def element(field: str) -> WeylElement:
        return datum.element_by_word(parse_word(entry[field]))

    def expected_rows() -> dict[WeylElement, QElem]:
        return {
            datum.element_by_word(parse_word(key)): parse_qelem(backend, value)
            for key, value in entry["rows"].items()
        }

    if kind == "product":
        basis = context.basis(label, lattice, law, entry["family"], words)
        u, v = element("u"), element("v")
        report.compare_rows((entry_id, "w"), basis.product_oracle(u, v), expected_rows())
        cross = basis.compare_routes([(u, v)])
        for item in cross.entries:
            report.add((entry_id, "route") + item.location, item.formula, item.oracle)
    elif kind == "constant":
        basis = context.basis(label, lattice, law, entry["family"], words)
        u, v, w = element("u"), element("v"), element("w")
        top_word = parse_word(entry["top_word"]) if entry.get("top_word") else None
        expected = parse_qelem(backend, entry["value"])
        oracle = basis.product_oracle(u, v).get(w, QElem.from_int(backend, 0))
        report.compare((entry_id, "oracle"), oracle, expected)
        formula = basis.structure_constant(u, v, w, top_word=top_word)
        report.compare((entry_id, "formula"), formula, expected)
    elif kind == "restriction":
        basis = context.basis(label, lattice, law, entry["family"], words)
        v, w = element("v"), element("w")
        expected = parse_qelem(backend, entry["value"])
        report.compare((entry_id, "expand"), basis.restriction(v, w), expected)
        report.compare((entry_id, "billey"), basis.restriction_via_billey(v, w), expected)
    elif kind == "stab-coh":
        coh = CohStableBasis(context.basis(label, lattice, ADDITIVE, "t", words))
        u, v, w = element("u"), element("v"), element("w")
        expected = parse_qelem(backend, entry["value"])
        oracle = coh.constants_oracle(u, v).get(w, QElem.from_int(backend, 0))
        report.compare((entry_id, "oracle"), oracle, expected)
    elif kind == "dual-class":
        basis = context.basis(label, lattice, law, entry["family"], words)
        dual = basis.dual_basis_element(element("u"))
        report.compare_rows((entry_id, "w"), dual.coeffs, expected_rows())
    elif kind == "leibniz":
        basis = context.basis(label, lattice, law, entry["family"], words)
        word = parse_word(entry["word"])
        e_set = frozenset(entry["e"])
        f_set = frozenset(entry["f"])
        value = basis.algebra.leibniz_coefficient(word, e_set, f_set)
        expected = parse_qelem(backend, entry["value"])
        report.compare((entry_id,), value, expected)
    else:
        raise ValueError(f"unknown corpus entry kind {kind!r}")
    return report


def corpus_entries(
    datum: RootDatum | None = None,
    families: Sequence[str] | None = None,
    laws: Sequence[str] | None = None,
) -> list[dict]:
    """The corpus entries on ``datum`` (those whose root datum has its Cartan
    matrix and lattice, whatever its label), with a family in ``families``
    and a law in ``laws``; a filter that is None or empty selects every value."""
    selected = []
    for entry in load_corpus()["entries"]:
        lattice = entry.get("lattice", "simply-connected")
        if datum is not None and (
            datum.lattice != lattice
            or datum.cartan != tuple(map(tuple, named_cartan_matrix(entry["datum"])))
        ):
            continue
        if (families and entry["family"] not in families) or (laws and entry["law"] not in laws):
            continue
        selected.append(entry)
    return selected


def suite_paper_examples(
    datum: RootDatum | None = None,
    families: Sequence[str] | None = None,
    laws: Sequence[str] | None = None,
) -> DiscrepancyReport:
    """Recompute the :func:`corpus_entries` selected by the same arguments.

    A selection of no entry gives an empty report; :func:`run_suite` is the
    place that refuses it."""
    context = _CorpusContext()
    report = DiscrepancyReport()
    for entry in corpus_entries(datum, families, laws):
        report.extend(run_corpus_entry(entry, context))
    return report


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_suite(
    name: str,
    datum: RootDatum,
    families: Sequence[str] | None = None,
    laws: Sequence[str] | None = None,
) -> DiscrepancyReport:
    """Run one named suite on a root datum and return its report.

    Raises ValueError for an unknown suite, and for ``paper-examples`` when
    the datum and filters select no corpus entry."""
    if name == "relations":
        return suite_relations(datum, families=families, laws=laws)
    if name == "leibniz":
        return suite_leibniz(datum, families=families, laws=laws)
    if name == "duality":
        return suite_duality(datum, families=families or ("x", "y"), laws=laws)
    if name == "paper-examples":
        if not corpus_entries(datum, families, laws):
            raise ValueError(
                "no corpus entries for this datum"
                + (", family and law" if families or laws else "")
            )
        return suite_paper_examples(datum, families=families, laws=laws)
    if name == "all":
        report = DiscrepancyReport()
        for part in ("relations", "leibniz", "duality"):
            report.extend(run_suite(part, datum, families=families, laws=laws))
        # A corpus selection of no entry adds nothing here, not an error.
        report.extend(suite_paper_examples(datum, families=families, laws=laws))
        return report
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")

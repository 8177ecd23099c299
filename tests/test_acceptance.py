"""Acceptance gate: seven criteria, one pass/fail line each.

Every criterion prints ``CRITERION n: PASS|FAIL - detail`` on the real
terminal (bypassing capture) and then asserts.  Criterion 5 contains two
published table entries whose closed forms disagree with the independent
oracle computed here; they are asserted verbatim, so that criterion fails
honestly.  The corrected values, and the exact corrective terms, are
verified in test_verify.py / the golden corpus instead.
"""

import itertools
import random

from conftest import get_datum, random_selem
from demazure.dual import (
    CohStableBasis,
    DiscrepancyReport,
    DualBasis,
    DualElem,
    KStableBasis,
)
from demazure.formal import (
    ADDITIVE,
    MULTIPLICATIVE,
    Backend,
    QElem,
    SElem,
    h_var,
    kappa_pair,
    q_equal,
    x_class,
)
from demazure.serialize import parse_qelem, parse_word, qelem_to_str
from demazure.twisted import Algebra, BUILTIN_FAMILIES
from demazure.verify import (
    check_generalized_leibniz,
    load_corpus,
    suite_duality,
    suite_relations,
)

_BASES: dict = {}


def get_basis(label: str, family: str, law: str) -> DualBasis:
    key = (label, family, law)
    if key not in _BASES:
        backend = Backend(get_datum(label), law)
        _BASES[key] = DualBasis(Algebra(BUILTIN_FAMILIES[family](backend)))
    return _BASES[key]


def wt(datum, *indices):
    acc = None
    for i in indices:
        root = datum.simple_root(i)
        acc = root if acc is None else tuple(a + b for a, b in zip(acc, root))
    return acc


def by_word(datum, word):
    return datum.element_by_word(tuple(word))


def _announce(capfd, number: int, failures: list, ok_detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = ok_detail if not failures else "; ".join(failures[:3]) + (
        f"; ... {len(failures) - 3} more" if len(failures) > 3 else ""
    )
    with capfd.disabled():
        print(f"\nCRITERION {number}: {status} - {detail}", flush=True)


# ---------------------------------------------------------------------------
# Criterion 1: the rank-2 product table, both formal group laws
# ---------------------------------------------------------------------------

A2_PRODUCT_PAIRS = {
    ("1", "1"), ("1", "2"), ("2", "2"),
    ("12", ""), ("12", "1"), ("12", "2"), ("12", "12"), ("12", "21"),
    ("21", ""), ("21", "1"), ("21", "2"), ("21", "21"),
    ("121", ""), ("121", "1"), ("121", "2"),
    ("121", "12"), ("121", "21"), ("121", "121"),
}


def test_criterion_1_a2_product_table(capfd):
    failures = []
    try:
        entries = [
            e
            for e in load_corpus()["entries"]
            if e["kind"] == "product" and e["datum"] == "A2"
        ]
        seen = {(e["law"], e["u"], e["v"]) for e in entries}
        for law in (ADDITIVE, MULTIPLICATIVE):
            missing = {(law, u, v) for u, v in A2_PRODUCT_PAIRS} - seen
            if missing:
                failures.append(f"table entries absent from corpus: {sorted(missing)}")
        datum = get_datum("A2")
        for entry in entries:
            basis = get_basis("A2", entry["family"], entry["law"])
            u = by_word(datum, parse_word(entry["u"]))
            v = by_word(datum, parse_word(entry["v"]))
            oracle = basis.product_oracle(u, v)
            stored = {
                by_word(datum, parse_word(key)): parse_qelem(basis.backend, blob)
                for key, blob in entry["rows"].items()
            }
            for w in basis.order:
                zero = QElem.from_int(basis.backend, 0)
                want = stored.get(w, zero)
                got = oracle.get(w, zero)
                if not q_equal(want, got):
                    failures.append(
                        f"{entry['law']} Z*({entry['u']}) Z*({entry['v']}): "
                        f"row {''.join(map(str, w.word)) or 'e'} is "
                        f"{qelem_to_str(got)}, published {qelem_to_str(want)}"
                    )
            if not basis.compare_routes([(u, v)]).is_empty:
                failures.append(
                    f"{entry['law']} ({entry['u']},{entry['v']}): routes disagree"
                )
    except Exception as exc:  # pragma: no cover - surfaced as a criterion failure
        failures.append(f"crashed: {exc!r}")
    _announce(
        capfd, 1, failures,
        "all 18 A2 products match the published table under both laws "
        "(kappa_12 -> 0 additively, 1 multiplicatively)",
    )
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 2: X*_1 X*_1 = -x_alpha1 X*_1 on A1, both backends
# ---------------------------------------------------------------------------


def test_criterion_2_a1_square(capfd):
    failures = []
    try:
        datum = get_datum("A1")
        s1 = by_word(datum, (1,))
        for law in (ADDITIVE, MULTIPLICATIVE):
            basis = get_basis("A1", "x", law)
            expected = QElem.from_s(-x_class(basis.backend, wt(datum, 1)))
            oracle = basis.product_oracle(s1, s1)
            if set(oracle) != {s1} or not q_equal(oracle[s1], expected):
                failures.append(f"{law}: oracle route gave {oracle}")
            formula = basis.structure_constant(s1, s1, s1)
            if not q_equal(formula, expected):
                failures.append(f"{law}: formula route gave {qelem_to_str(formula)}")
    except Exception as exc:  # pragma: no cover
        failures.append(f"crashed: {exc!r}")
    _announce(capfd, 2, failures, "X*_1 X*_1 = -x_alpha1 X*_1 under both laws")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 3: additive Y-family constants
# ---------------------------------------------------------------------------


def test_criterion_3_additive_y_constants(capfd):
    failures = []
    try:
        a2 = get_datum("A2")
        basis2 = get_basis("A2", "y", ADDITIVE)
        w0 = a2.longest_element
        got = basis2.structure_constant(by_word(a2, (1,)), by_word(a2, (1, 2)), w0)
        if not q_equal(got, QElem.from_int(basis2.backend, 1)):
            failures.append(f"y^(121)_(1,12) = {qelem_to_str(got)}, expected 1")
        got = basis2.structure_constant(by_word(a2, (1,)), by_word(a2, (2, 1)), w0)
        if not got.is_zero():
            failures.append(f"y^(121)_(1,21) = {qelem_to_str(got)}, expected 0")

        a3 = get_datum("A3")
        basis3 = get_basis("A3", "y", ADDITIVE)
        top = by_word(a3, (1, 2, 3, 1, 2))
        got = basis3.structure_constant(
            by_word(a3, (2, 3, 2)), by_word(a3, (1, 2, 1)), top,
            top_word=(1, 2, 3, 1, 2),
        )
        expected = QElem.from_s(x_class(basis3.backend, wt(a3, 1, 2, 3)))
        if not q_equal(got, expected):
            failures.append(
                f"y^(12312)_(232,121) = {qelem_to_str(got)}, expected alpha1+alpha2+alpha3"
            )
    except Exception as exc:  # pragma: no cover
        failures.append(f"crashed: {exc!r}")
    _announce(
        capfd, 3, failures,
        "additive y-constants: (1,12)->1, (1,21)->0, A3 (232,121)->a1+a2+a3",
    )
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 4: multiplicative X-family constant on A3
# ---------------------------------------------------------------------------


def test_criterion_4_multiplicative_x_constant(capfd):
    failures = []
    try:
        a3 = get_datum("A3")
        basis = get_basis("A3", "x", MULTIPLICATIVE)
        top = by_word(a3, (1, 2, 3, 1, 2))
        got = basis.structure_constant(
            by_word(a3, (2, 3, 2)), by_word(a3, (1, 2, 1)), top,
            top_word=(1, 2, 3, 1, 2),
        )
        backend = basis.backend
        expected = QElem.from_s(
            x_class(backend, wt(a3, 2)) - x_class(backend, wt(a3, 1, 2, 2, 3))
        )
        if not q_equal(got, expected):
            failures.append(
                f"x^(12312)_(232,121) = {qelem_to_str(got)}, "
                "expected x_alpha2 - x_(alpha1+2alpha2+alpha3)"
            )
    except Exception as exc:  # pragma: no cover
        failures.append(f"crashed: {exc!r}")
    _announce(
        capfd, 4, failures,
        "multiplicative x^(12312)_(232,121) = x_a2 - x_(a1+2a2+a3)",
    )
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 5: cohomological stable-basis constants by the oracle route
# ---------------------------------------------------------------------------


def test_criterion_5_stable_basis_oracle_values(capfd):
    failures = []
    try:
        a2 = get_datum("A2")
        coh2 = CohStableBasis(get_basis("A2", "t", ADDITIVE))
        b2 = coh2.backend
        h = h_var(b2)
        al1 = x_class(b2, wt(a2, 1))
        al2 = x_class(b2, wt(a2, 2))
        s1 = by_word(a2, (1,))
        w0 = a2.longest_element
        a2_cases = [
            ("t^(121)_(1,1)", by_word(a2, (1,)), h * h * (h + al1)),
            ("t^(121)_(1,12)", by_word(a2, (1, 2)), h * h * (h + al1)),
            ("t^(121)_(1,21)", by_word(a2, (2, 1)), h * h * (al1 + al2)),
        ]
        for name, v, expected in a2_cases:
            got = coh2.constants_oracle(s1, v).get(w0, QElem.from_int(b2, 0))
            if not q_equal(got, QElem.from_s(expected)):
                failures.append(f"{name} = {qelem_to_str(got)}")

        # the literal closed form exceeds the oracle by one hat factor and
        # must surface in a discrepancy report, never silently
        report = coh2.compare_constants([(s1, s1)])
        if report.is_empty:
            failures.append("formula-route deviation was not reported")
        hat = QElem.from_s(coh2.scale)
        for entry in report.entries:
            if not q_equal(entry.formula, hat * entry.oracle):
                failures.append("reported deviation is not the hat-class factor")

        a3 = get_datum("A3")
        top = by_word(a3, (1, 2, 3, 1, 2))
        t3 = BUILTIN_FAMILIES["t"](Backend(a3, ADDITIVE))
        coh3 = CohStableBasis(DualBasis(Algebra(t3, {top: (1, 2, 3, 1, 2)})))
        b3 = coh3.backend
        h = h_var(b3)
        a_1 = x_class(b3, wt(a3, 1))
        a_2 = x_class(b3, wt(a3, 2))
        a_3 = x_class(b3, wt(a3, 3))
        two = SElem.constant(b3, 2)
        three = SElem.constant(b3, 3)
        u = by_word(a3, (2, 3, 2))
        a3_cases = [
            (
                "t^(12312)_(232,121)",
                by_word(a3, (1, 2, 1)),
                h * h * h * (h - a_3) * (h + a_2) * (a_1 + a_2 + a_3),
            ),
            (
                "t^(12312)_(232,1)",
                by_word(a3, (1,)),
                h * h * h * h * h * ((h - a_2) + two * (h - a_3)),
            ),
            (
                "t^(12312)_(232,2)",
                by_word(a3, (2,)),
                h
                * h
                * h
                * h
                * (three * h * h + h * a_2 + (a_2 + a_3) * (h - (a_1 + a_2 + a_3))),
            ),
        ]
        for name, v, published in a3_cases:
            got = coh3.constants_oracle(u, v).get(top, QElem.from_int(b3, 0))
            if not q_equal(got, QElem.from_s(published)):
                failures.append(
                    f"{name}: oracle = {qelem_to_str(got)}; published form = "
                    f"{qelem_to_str(QElem.from_s(published))} (the two tables "
                    "differ by a fixed polynomial; see the golden corpus notes)"
                )
    except Exception as exc:  # pragma: no cover
        failures.append(f"crashed: {exc!r}")
    _announce(
        capfd, 5, failures,
        "stable-basis oracle matches all published values and the formula "
        "route's hat-factor deviation is reported",
    )
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 6: restriction coefficients
# ---------------------------------------------------------------------------


def test_criterion_6_restrictions(capfd):
    failures = []
    try:
        a2 = get_datum("A2")
        w0 = a2.longest_element
        s1 = by_word(a2, (1,))
        for law, expect_builder in (
            (ADDITIVE, lambda b: -(x_class(b, wt(a2, 1)) + x_class(b, wt(a2, 2)))),
            (MULTIPLICATIVE, lambda b: -x_class(b, wt(a2, 1, 2))),
        ):
            basis = get_basis("A2", "x", law)
            expected = QElem.from_s(expect_builder(basis.backend))
            for route_name, route in (
                ("expansion", basis.restriction),
                ("closed-form", basis.restriction_via_billey),
            ):
                got = route(w0, s1)
                if not q_equal(got, expected):
                    failures.append(
                        f"A2 {law} b_(121),I_(1) via {route_name}: {qelem_to_str(got)}"
                    )

        a3 = get_datum("A3")
        v = by_word(a3, (1, 2, 3, 1, 2))
        w = by_word(a3, (1, 2))

        def additive_expected(b):
            a_1 = x_class(b, wt(a3, 1))
            a_2 = x_class(b, wt(a3, 2))
            a_12 = x_class(b, wt(a3, 1, 2))
            a_23 = x_class(b, wt(a3, 2, 3))
            return a_1 * a_12 + a_1 * a_23 + a_2 * a_23

        def multiplicative_expected(b):
            x1 = x_class(b, wt(a3, 1))
            x2 = x_class(b, wt(a3, 2))
            x12 = x_class(b, wt(a3, 1, 2))
            x23 = x_class(b, wt(a3, 2, 3))
            return x1 * x12 + x1 * x23 + x2 * x23 - x1 * x23 * (x12 + x2)

        for law, builder in (
            (ADDITIVE, additive_expected),
            (MULTIPLICATIVE, multiplicative_expected),
        ):
            basis = get_basis("A3", "x", law)
            expected = QElem.from_s(builder(basis.backend))
            for route_name, route in (
                ("expansion", basis.restriction),
                ("closed-form", basis.restriction_via_billey),
            ):
                got = route(v, w)
                if not q_equal(got, expected):
                    failures.append(
                        f"A3 {law} b_(12312),I_(12) via {route_name}: {qelem_to_str(got)}"
                    )
    except Exception as exc:  # pragma: no cover
        failures.append(f"crashed: {exc!r}")
    _announce(
        capfd, 6, failures,
        "restrictions match: A2 b_(121),I_(1) and A3 b_(12312),I_(12), both "
        "laws, both routes",
    )
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 7: the property suite
# ---------------------------------------------------------------------------


def _all_words(rank: int, max_len: int) -> list:
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(range(1, rank + 1), repeat=length))
    return out


def _leibniz_samples(label: str, max_len: int, count: int, failures: list) -> None:
    datum = get_datum(label)
    words = _all_words(datum.rank, max_len)
    algebras = {
        law: get_basis(label, "x", law).algebra
        for law in (ADDITIVE, MULTIPLICATIVE)
    }
    rng = random.Random(f"acceptance-7-{label}")
    report = DiscrepancyReport()
    for index in range(count):
        word = words[index % len(words)]
        law = ADDITIVE if index % 2 == 0 else MULTIPLICATIVE
        algebra = algebras[law]
        p = QElem.from_s(random_selem(rng, algebra.backend, 2, 1))
        q = QElem.from_s(random_selem(rng, algebra.backend, 2, 1))
        check_generalized_leibniz(
            algebra, word, p, q, report, (label, law, str(index))
        )
    if not report.is_empty:
        first = report.to_json()["discrepancies"][0]["location"]
        failures.append(f"generalized Leibniz failed on {label}: {first}")


def test_criterion_7_property_suite(capfd):
    failures = []
    try:
        # (a) formula route == oracle route for every X/Y structure constant
        for label in ("A2", "B2", "A3"):
            for family in ("x", "y"):
                for law in (ADDITIVE, MULTIPLICATIVE):
                    if not get_basis(label, family, law).compare_routes().is_empty:
                        failures.append(f"routes differ: {label}/{family}/{law}")
        # (b) same for the Hecke-type families on the rank-2 data
        for label in ("A2", "B2"):
            if not get_basis(label, "t", ADDITIVE).compare_routes().is_empty:
                failures.append(f"routes differ: {label}/t")
            if not get_basis(label, "tau", MULTIPLICATIVE).compare_routes().is_empty:
                failures.append(f"routes differ: {label}/tau")

        # (c) duality pairing is the identity matrix
        for label in ("A2", "B2"):
            datum = get_datum(label)
            if not suite_duality(datum).is_empty:
                failures.append(f"duality grid failed for x/y on {label}")
            if not suite_duality(datum, families=("t",), laws=(ADDITIVE,)).is_empty:
                failures.append(f"duality grid failed for t on {label}")
            if not suite_duality(
                datum, families=("tau",), laws=(MULTIPLICATIVE,)
            ).is_empty:
                failures.append(f"duality grid failed for tau on {label}")

        # (d) generalized Leibniz rule: 100 seeded samples per rank-2 datum
        # cycling through every word of length <= 5, plus an A3 spot-check
        for label in ("A2", "B2"):
            _leibniz_samples(label, max_len=5, count=100, failures=failures)
        _leibniz_samples("A3", max_len=3, count=10, failures=failures)

        # (e) the closed product form equals the two-sided expansion
        # coefficient for every subset of every word up to length 6
        for law in (ADDITIVE, MULTIPLICATIVE):
            algebra = get_basis("A2", "x", law).algebra
            for word in _all_words(2, 6):
                positions = range(1, len(word) + 1)
                full = frozenset(positions)
                for size in range(len(word) + 1):
                    for combo in itertools.combinations(positions, size):
                        e_set = frozenset(combo)
                        closed = algebra.billey_closed_form(word, e_set)
                        expanded = algebra.leibniz_coefficient(word, full, e_set)
                        if not q_equal(closed, expanded):
                            failures.append(
                                f"closed form differs at {law} {word} E={sorted(e_set)}"
                            )

        # (f) the conjugation identity p_w b = b b_w for every w
        for label in ("A2", "B2"):
            basis = get_basis(label, "x", ADDITIVE)
            for w in basis.order:
                if not basis.check_restriction_matrices(w).is_empty:
                    failures.append(f"matrix identity failed at {label} w={w.word}")

        # (g) structure constants against the top class equal restrictions,
        # for every reduced word of every element
        for label in ("A2", "B2"):
            for law in (ADDITIVE, MULTIPLICATIVE):
                basis = get_basis(label, "x", law)
                datum = basis.datum
                for v in basis.order:
                    for word in datum.all_reduced_words(v):
                        for w in basis.order:
                            if not datum.bruhat_leq(w, v):
                                continue
                            lhs = basis.structure_constant(w, v, v, top_word=word)
                            rhs = basis.restriction(v, w)
                            if not q_equal(lhs, rhs):
                                failures.append(
                                    f"restriction identity failed: {label}/{law} "
                                    f"v={v.word} word={word} w={w.word}"
                                )

        # (h) operator relations: squares, braid, vanishing kappa for bond
        # order 3, T^2 = 1 and tau^2 = (q-1) tau + q, on both rank-2 data
        for label in ("A2", "B2"):
            report = suite_relations(get_datum(label))
            if not report.is_empty:
                failures.append(
                    f"relations failed on {label}: {report.to_json()['discrepancies'][0]}"
                )
        a2_backend_add = Backend(get_datum("A2"), ADDITIVE)
        a2_backend_mul = Backend(get_datum("A2"), MULTIPLICATIVE)
        for backend in (a2_backend_add, a2_backend_mul):
            if not kappa_pair(backend, 1, 2).is_zero():
                failures.append(f"kappa_12 nonzero under {backend.law}")

        # (i) the stable pairings are diagonal
        coh = CohStableBasis(get_basis("A2", "t", ADDITIVE))
        sign = (-1) ** coh.datum.longest_element.length
        signed_unit = QElem.from_int(coh.backend, sign) * DualElem.unit(coh.backend)
        for v in coh.datum.elements:
            for u in coh.datum.elements:
                with_stab = coh.pairing_with_stab(v, u)
                with_dual = coh.pairing_with_dual(v, u)
                if v == u:
                    ok = with_stab == signed_unit and with_dual == DualElem.unit(
                        coh.backend
                    )
                else:
                    ok = with_stab.is_zero() and with_dual.is_zero()
                if not ok:
                    failures.append(f"stable pairing not diagonal at ({v.word},{u.word})")

        # (j) the K-theoretic stable class agrees with its operator form
        kst = KStableBasis(get_basis("A2", "tau", MULTIPLICATIVE))
        for w in kst.datum.elements:
            if kst.stab_minus(w) != kst.stab_minus_bullet(w):
                failures.append(f"K-stable routes differ at w={w.word}")
        if not kst.compare_constants().is_empty:
            failures.append("K-theoretic constants: routes differ somewhere")

        # (k) additive sign bridge between the x- and y-constants
        for label in ("A2", "B2"):
            basis_x = get_basis(label, "x", ADDITIVE)
            basis_y = get_basis(label, "y", ADDITIVE)
            datum = basis_x.datum
            for u in basis_x.order:
                for v in basis_x.order:
                    rows_x = basis_x.product_oracle(u, v)
                    rows_y = basis_y.product_oracle(u, v)
                    if set(rows_x) != set(rows_y):
                        failures.append(f"sign bridge supports differ at ({u.word},{v.word})")
                        continue
                    for w, val_x in rows_x.items():
                        sign = (-1) ** (w.length + u.length + v.length)
                        scaled = QElem.from_int(basis_x.backend, sign) * rows_y[w]
                        if not q_equal(val_x, scaled):
                            failures.append(
                                f"sign bridge failed: {label} ({u.word},{v.word},{w.word})"
                            )

        # (l) parabolic products stay inside the minimal coset representatives
        for subset in ((1,), (2,)):
            basis = get_basis("A2", "x", ADDITIVE)
            reps = set(basis.datum.min_coset_reps(subset))
            table = basis.parabolic_table(subset)
            if not any(table.values()):
                failures.append(f"parabolic table empty for J={subset}")
            for (u, v), row in table.items():
                if not (u in reps and v in reps and set(row) <= reps):
                    failures.append(f"parabolic support leak for J={subset}")
                    break
    except Exception as exc:  # pragma: no cover
        failures.append(f"crashed: {exc!r}")
    _announce(
        capfd, 7, failures,
        "route agreement (x/y on A2,B2,A3; t/tau on A2,B2), duality grids, "
        "100 Leibniz samples per rank-2 datum, closed forms to length 6, "
        "matrix identity, restriction identity over all reduced words, "
        "relations, diagonal pairings, K-stable routes, sign bridge, "
        "parabolic supports",
    )
    assert not failures, "\n".join(failures)

"""Twisted group algebra, operator families, basis changes, Leibniz data."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from conftest import get_datum, random_selem, unit_family
from demazure.dual import DiscrepancyReport, DualBasis
from demazure.formal import (
    ADDITIVE,
    MULTIPLICATIVE,
    Backend,
    FactorSymbol,
    QElem,
    X_ROOT,
    kappa,
    one,
    q_equal,
    v_var,
    weyl_act,
    weyl_act_q,
    x_class,
    zero,
)
from demazure.rootdata import WeylElement
from demazure.serialize import qelem_to_str, word_to_str
from demazure.twisted import (
    BUILTIN_FAMILIES,
    Algebra,
    QWElem,
    custom_family,
    expand_in_triangular_basis,
    read_coefficients,
)
from demazure.verify import check_generalized_leibniz

BACKEND_CACHE = {}


def get_backend(label, law):
    key = (label, law)
    if key not in BACKEND_CACHE:
        BACKEND_CACHE[key] = Backend(get_datum(label), law)
    return BACKEND_CACHE[key]


ALGEBRA_CACHE = {}


def get_algebra(label, family_name, law):
    key = (label, family_name, law)
    if key not in ALGEBRA_CACHE:
        ALGEBRA_CACHE[key] = Algebra(BUILTIN_FAMILIES[family_name](get_backend(label, law)))
    return ALGEBRA_CACHE[key]


def q_int(backend, value):
    return QElem.from_int(backend, value)


def all_words(rank, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, rank + 1), repeat=length)


# ---------------------------------------------------------------------------
# Q_W basics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_twisted_product_rule(law):
    backend = get_backend("A2", law)
    datum = backend.datum
    alpha = datum.simple_root(1)
    s1 = datum.simple_reflection(1)
    z = QWElem.delta(backend, s1, QElem.from_s(x_class(backend, alpha)))
    square = z * z
    minus = tuple(-c for c in alpha)
    expected = x_class(backend, alpha) * x_class(backend, minus)
    assert square.support() == (datum.identity,)
    assert q_equal(square.coeff(datum.identity), QElem.from_s(expected))


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_delta_e_is_identity_and_constants_fixed(law):
    backend = get_backend("A2", law)
    datum = backend.datum
    alg = get_algebra("A2", "x", law)
    z = alg.compose_word((1, 2))
    assert QWElem.one(backend) * z == z
    assert z * QWElem.one(backend) == z
    # delta_alpha . r = s_alpha(r) = r for constants r
    d = QWElem.delta(backend, datum.simple_reflection(1))
    assert q_equal(d.act(q_int(backend, 7)), q_int(backend, 7))


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_action_is_algebra_action(law):
    backend = get_backend("A2", law)
    alg = get_algebra("A2", "x", law)
    rng = random.Random(20240807)
    z1 = alg.compose_word((1, 2))
    z2 = alg.compose_word((2, 1, 2))
    for _ in range(5):
        p = QElem.from_s(random_selem(rng, backend))
        lhs = (z1 * z2).act(p)
        rhs = z1.act(z2.act(p))
        assert q_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Operator elements and relations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_y_equals_kappa_minus_x(law):
    backend = get_backend("A2", law)
    datum = backend.datum
    algx = get_algebra("A2", "x", law)
    algy = get_algebra("A2", "y", law)
    for i in (1, 2):
        k = kappa(backend, datum.simple_root(i))
        expected = QWElem.delta(backend, datum.identity, k) - algx.simple_element(i)
        assert algy.simple_element(i) == expected


@pytest.mark.parametrize(
    "label,family,law",
    [
        ("A2", "x", ADDITIVE),
        ("A2", "x", MULTIPLICATIVE),
        ("A2", "y", ADDITIVE),
        ("A2", "y", MULTIPLICATIVE),
        ("A2", "t", ADDITIVE),
        ("A2", "tau", MULTIPLICATIVE),
        ("A2", "sigma", ADDITIVE),
        ("B2", "x", ADDITIVE),
        ("B2", "x", MULTIPLICATIVE),
        ("B2", "y", MULTIPLICATIVE),
        ("B2", "t", ADDITIVE),
        ("B2", "tau", MULTIPLICATIVE),
        ("G2", "x", ADDITIVE),
        ("G2", "tau", MULTIPLICATIVE),
    ],
)
def test_verify_relations_all_pass(label, family, law):
    alg = get_algebra(label, family, law)
    report = alg.verify_relations()
    assert report, "empty relation report"
    failed = [entry["name"] for entry in report if not entry["passed"]]
    assert not failed


def test_sigma_quadratic_is_involution():
    alg = get_algebra("A2", "sigma", ADDITIVE)
    backend = alg.backend
    for i in (1, 2):
        z = alg.simple_element(i)
        assert z * z == QWElem.one(backend)


def test_family_backend_mismatch():
    with pytest.raises(ValueError):
        BUILTIN_FAMILIES["t"](get_backend("A2", MULTIPLICATIVE))
    with pytest.raises(ValueError):
        BUILTIN_FAMILIES["tau"](get_backend("A2", ADDITIVE))
    with pytest.raises(ValueError):
        BUILTIN_FAMILIES["sigma"](get_backend("A2", MULTIPLICATIVE))


def test_builtin_families_are_equivariant_with_exact_b_inverse():
    for label, family, law in [
        ("A2", "x", ADDITIVE),
        ("A2", "y", MULTIPLICATIVE),
        ("B2", "t", ADDITIVE),
        ("B2", "tau", MULTIPLICATIVE),
        ("A2", "sigma", ADDITIVE),
    ]:
        fam = get_algebra(label, family, law).family
        assert fam.check_b_inverse() == []
        assert fam.check_equivariance() == []


# ---------------------------------------------------------------------------
# Basis changes (the A2 rows of Example 2.5 shape)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_a2_delta_rows(law):
    backend = get_backend("A2", law)
    datum = backend.datum
    alg = get_algebra("A2", "x", law)
    x1 = x_class(backend, datum.simple_root(1))
    x2 = x_class(backend, datum.simple_root(2))
    x12 = x_class(backend, datum.root_to_weight((1, 1)))
    k1 = kappa(backend, datum.simple_root(1))

    e = datum.identity
    s1 = datum.element_by_word((1,))
    s2 = datum.element_by_word((2,))
    s12 = datum.element_by_word((1, 2))
    s21 = datum.element_by_word((2, 1))
    w0 = datum.element_by_word((1, 2, 1))

    # delta_{s1} = 1 - x_{a1} X_{(1)}
    row = alg.b_row(s1)
    assert set(row) == {e, s1}
    assert q_equal(row[e], q_int(backend, 1))
    assert q_equal(row[s1], QElem.from_s(-x1))

    # delta_{w0}: coefficient of X_{(1)} and X_{(2)} is -(x1 + x2 - kappa_1 x1 x2);
    # the longer coefficients (derived by inverting the a-matrix) are
    # x1 x12, x2 x12 and -x1 x2 x12.
    row = alg.b_row(w0)
    short = -(x1 + x2 - k1 * x1 * x2)
    assert q_equal(row[e], q_int(backend, 1))
    assert q_equal(row[s1], QElem.from_s(short))
    assert q_equal(row[s2], QElem.from_s(short))
    assert q_equal(row[s12], QElem.from_s(x1 * x12))
    assert q_equal(row[s21], QElem.from_s(x2 * x12))
    assert q_equal(row[w0], QElem.from_s(-(x1 * x2 * x12)))


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_compose_word_w0_coefficient(law):
    backend = get_backend("A2", law)
    datum = backend.datum
    alg = get_algebra("A2", "x", law)
    w0 = datum.element_by_word((1, 2, 1))
    z = alg.compose_word((1, 2, 1))
    expected = -QElem(
        one(backend),
        [
            FactorSymbol(X_ROOT, datum.simple_root(1)),
            FactorSymbol(X_ROOT, datum.root_to_weight((1, 1))),
            FactorSymbol(X_ROOT, datum.simple_root(2)),
        ],
    )
    assert q_equal(z.coeffs[w0], expected)
    assert alg.compose_word(()) == QWElem.one(backend)


@pytest.mark.parametrize(
    "label,family,law",
    [
        ("A2", "x", ADDITIVE),
        ("A2", "x", MULTIPLICATIVE),
        ("A2", "y", ADDITIVE),
        ("A2", "y", MULTIPLICATIVE),
        ("A2", "t", ADDITIVE),
        ("A2", "tau", MULTIPLICATIVE),
        ("B2", "x", ADDITIVE),
        ("B2", "y", MULTIPLICATIVE),
        ("B2", "t", ADDITIVE),
        ("B2", "tau", MULTIPLICATIVE),
        ("G2", "x", ADDITIVE),
        ("G2", "tau", MULTIPLICATIVE),
    ],
)
def test_triangular_support_exact(label, family, law):
    alg = get_algebra(label, family, law)
    datum = alg.datum
    for w in datum.elements:
        support = set(alg.z_basis_element(w).coeffs)
        below = {u for u in datum.elements if datum.bruhat_leq(u, w)}
        assert support == below, (label, family, law, w.word)


def test_support_bound_nonreduced_word():
    datum = get_datum("A2")
    for law in (ADDITIVE, MULTIPLICATIVE):
        alg = get_algebra("A2", "x", law)
        z = alg.compose_word((1, 1))
        allowed = {datum.identity, datum.element_by_word((1,))}
        assert set(z.coeffs) <= allowed


def test_triangular_elimination_raises_when_a_residue_survives():
    alg = get_algebra("A2", "x", ADDITIVE)
    order = sorted(alg.datum.elements, key=WeylElement.sort_key, reverse=True)
    w0 = alg.datum.longest_element
    target = alg.z_basis_element(w0).coeffs

    def column(w):
        return alg.z_basis_element(w).coeffs

    def pivot(w, cur):
        return cur * alg.diag_inverse(w)

    solved = expand_in_triangular_basis(order, target, column, pivot)
    assert list(solved) == [w0]
    assert q_equal(solved[w0], QElem.from_int(alg.backend, 1))

    def twice_the_pivot(w, cur):
        return cur * alg.diag_inverse(w) * 2

    with pytest.raises(ValueError, match="residue survives"):
        expand_in_triangular_basis(order, target, column, twice_the_pivot)


@pytest.mark.parametrize(
    "label,family,law",
    [
        ("A2", "x", ADDITIVE),
        ("A2", "y", MULTIPLICATIVE),
        ("A2", "t", ADDITIVE),
        ("A2", "tau", MULTIPLICATIVE),
        ("A2", "sigma", ADDITIVE),
        ("B2", "x", MULTIPLICATIVE),
        ("B2", "tau", MULTIPLICATIVE),
    ],
)
def test_delta_roundtrip(label, family, law):
    alg = get_algebra(label, family, law)
    backend = alg.backend
    for u in alg.datum.elements:
        rebuilt = QWElem.zero(backend)
        for v, coeff in alg.b_row(u).items():
            rebuilt = rebuilt + coeff * alg.z_basis_element(v)
        assert rebuilt == QWElem.delta(backend, u), (label, family, law, u.word)


@pytest.mark.parametrize("label", ["A2", "B2"])
@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("family", ["x", "y"])
def test_b_and_c_coefficients_lie_in_s(label, law, family):
    alg = get_algebra(label, family, law)
    for u in alg.datum.elements:
        for coeff in alg.b_row(u).values():
            coeff.as_selem()
    for word in all_words(alg.datum.rank, 3):
        for coeff in alg.expand_in_z_basis(word).values():
            coeff.as_selem()


_B_ROW_GRIDS = [
    ("A3", "simply-connected", "x", ADDITIVE, 213,
     "dac4e68a554437d26422fba991c304af81f9ec48d815f45fb85f72dc117e0a49"),
    ("A3", "simply-connected", "x", MULTIPLICATIVE, 213,
     "d16df7b5a830e73df24fda0e00087cf01298bdb97a4d55ec60835c93bd15a1eb"),
    ("A3", "simply-connected", "y", ADDITIVE, 213,
     "46d84e1e5d0b6a5660b3c90d3accaae44d75e7436a48094e30cee28917216613"),
    ("A3", "simply-connected", "t", ADDITIVE, 213,
     "03565dd9ff9f0e6d0a21e7189593ad8a1ba742e66173bcadbea3863b4b71dcbf"),
    ("A3", "simply-connected", "tau", MULTIPLICATIVE, 213,
     "f6c1db30a9bad9f27ba9d1136543f55000f0be7f20752a2ef58fe205e25fbf03"),
    # The content-2 root x_(2,-2) of the simply-connected B2 lattice.
    ("B2", "simply-connected", "x", ADDITIVE, 33,
     "9f5627b95713edf87a30e8723651b464e1f0630463befef1d6b729ea66fd9c38"),
    ("B2", "adjoint", "t", ADDITIVE, 33,
     "7f0b461a06062a04ff2b33617810d146004e38ac075bc3c7514c53699c3472fc"),
    ("G2", "simply-connected", "t", ADDITIVE, 73,
     "c00ee7dfaf2b4fefd8db9afd1412446e1760c4bb39101257af538abb2592ba4e"),
    ("G2", "simply-connected", "x", MULTIPLICATIVE, 73,
     "8d8eced7e3eaaa6f59e8bc5a86b538e6b0682e3cf05829f212b80a91cb22c8b6"),
    ("B2", "simply-connected", "sigma", ADDITIVE, 33,
     "28d95f42a10b0cb97affa5ab4187af5ae6390e32a44b6e69908396affb6fde0e"),
    # The datum of the benchmark's classes-B3-x-mult workload.
    ("B3", "simply-connected", "x", MULTIPLICATIVE, 847,
     "8818a36946fdf48b1bf284e505a26fe5781211d7c272229516d4bda68bc91c14"),
    ("B2", "simply-connected", "t", ADDITIVE, 33,
     "c291566af14dadbc25afa49bd5f49925c04d88f61eb52a16f90c986e44293b95"),
]


@pytest.mark.parametrize("label,lattice,family,law,entries,digest", _B_ROW_GRIDS)
def test_b_row_printed_forms_are_pinned(label, lattice, family, law, entries, digest):
    """The printed form of a Q value depends on how its sum was formed, so
    the b-matrix is pinned entry by entry: one line "u t b_{u,I_t}" per
    entry, rows in sort_key order and each row's targets too."""
    alg = Algebra(BUILTIN_FAMILIES[family](Backend(get_datum(label, lattice), law)))
    lines = []
    for u in alg.datum.elements:
        row = alg.b_row(u)
        for t in sorted(row, key=WeylElement.sort_key):
            lines.append(f"{word_to_str(u.word)} {word_to_str(t.word)} {qelem_to_str(row[t])}\n")
    assert len(lines) == entries
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("label,lattice,family,law", [grid[:4] for grid in _B_ROW_GRIDS])
def test_diag_inverse_prints_as_the_product_of_b_inverses(label, lattice, family, law):
    """The monic walk's diagonal inverse of w prints as the left-to-right
    product of b_inv over the inversion roots of I_w."""
    alg = Algebra(BUILTIN_FAMILIES[family](Backend(get_datum(label, lattice), law)))
    for w in alg.datum.elements:
        expected = q_int(alg.backend, 1)
        for beta in alg._inversion_weights(alg.word(w)):
            expected = expected * alg.family.b_inv(beta)
        assert qelem_to_str(alg.diag_inverse(w)) == qelem_to_str(expected), w.word


def _product_of_letters(alg, word):
    """Z_{i_1} ... Z_{i_k}, multiplied left to right with no cache."""
    value = QWElem.one(alg.backend)
    for i in word:
        value = value * alg.simple_element(i)
    return value


@pytest.mark.parametrize("label,family", [("A2", "x"), ("B2", "x"), ("B2", "t")])
def test_compose_word_is_the_left_to_right_product_of_its_letters(label, family):
    """Every word up to length 4, reduced or not, composes to the product of
    its letters, with identical printed coefficients, and the walk keeps
    exactly the prefixes of the words asked for."""
    alg = Algebra(BUILTIN_FAMILIES[family](get_backend(label, ADDITIVE)))
    words = list(all_words(alg.datum.rank, 4))
    asked = random.Random(label).sample(words, 6)
    for word in asked:
        alg.compose_word(word)
    assert set(alg._compose_cache) == {w[:k] for w in asked for k in range(len(w) + 1)}
    for word in words:
        composed, expected = alg.compose_word(word), _product_of_letters(alg, word)
        assert composed == expected, word
        assert {w: qelem_to_str(c) for w, c in composed.coeffs.items()} == {
            w: qelem_to_str(c) for w, c in expected.coeffs.items()
        }, word


_MONIC_GRIDS = [
    (label, family, law)
    for label in ("A2", "B2", "G2", "A3")
    for family, law in (
        ("x", ADDITIVE), ("x", MULTIPLICATIVE), ("t", ADDITIVE), ("tau", MULTIPLICATIVE),
        ("unit", ADDITIVE),
    )
]


def _algebra(label, family, law, words=None):
    backend = get_backend(label, law)
    fam = unit_family(backend) if family == "unit" else BUILTIN_FAMILIES[family](backend)
    return Algebra(fam, words)


@pytest.mark.parametrize("subset", [None, (2,)], ids=["lexmin", "jcompat-2"])
@pytest.mark.parametrize("label,family,law", _MONIC_GRIDS)
def test_monic_rows_are_the_composed_words_over_their_leading_coefficient(
    label, family, law, subset
):
    """M_J(v) = a_{J,v} / a_{J,w}: the letter-by-letter recursion gives the
    coefficients of the composed word times diag_inverse(w), for lexmin
    words and for J-compatible words, whose prefixes are not all chosen.
    The same walk carries the word's element and its diagonal inverse."""
    datum = get_datum(label)
    words = None if subset is None else datum.j_compatible_words(subset)
    alg = _algebra(label, family, law, words)
    for w in datum.elements:
        word = alg.word(w)
        element, row, inverse = alg._monic_row(word)
        assert element is w and inverse is alg.diag_inverse(w), word
        composed = alg.compose_word(word).coeffs
        assert row.keys() == composed.keys(), word
        assert q_equal(row[w], q_int(alg.backend, 1)), word
        for v, value in composed.items():
            assert q_equal(row[v], value * alg.diag_inverse(w)), (word, v.word)


@pytest.mark.parametrize(
    "label,family,law,subset",
    [("A3", "x", MULTIPLICATIVE, None), ("B2", "t", ADDITIVE, None),
     ("A3", "unit", ADDITIVE, None), ("A3", "tau", MULTIPLICATIVE, (2,)),
     ("A3", "unit", ADDITIVE, (1,))],
)
def test_a_b_matrix_build_composes_no_word(monkeypatch, label, family, law, subset):
    """The b-rows come from the monic rows alone: no word is composed in
    Q_W, no element is looked up by its word, and each monic step stores the
    row of one more prefix, so lexmin words take |W| - 1 steps and other
    choices one per distinct prefix."""
    datum = get_datum(label)
    words = None if subset is None else datum.j_compatible_words(subset)
    alg = _algebra(label, family, law, words)
    composed, looked_up = [], []
    compose_word, element_by_word = Algebra.compose_word, type(datum).element_by_word
    monkeypatch.setattr(
        Algebra, "compose_word", lambda self, word: composed.append(word) or compose_word(self, word)
    )
    monkeypatch.setattr(
        type(datum), "element_by_word",
        lambda self, word: looked_up.append(word) or element_by_word(self, word),
    )
    alg.b_row(datum.longest_element)
    assert len(alg._b_rows) == len(datum.elements)
    assert not composed and not looked_up
    prefixes = {word[:k] for word in alg.words.values() for k in range(len(word) + 1)}
    assert set(alg._monic_rows) == prefixes
    if subset is None:
        assert len(prefixes) == len(datum.elements)
    else:  # some chosen word passes a prefix that no element has chosen
        assert len(prefixes) > len(datum.elements)


@pytest.mark.parametrize(
    "family, law",
    [(name, law) for name, entry in BUILTIN_FAMILIES.items() for law in entry.laws],
)
def test_a_family_builds_each_coefficient_once_per_root(family, law):
    """The family's a, b and b_inv return one shared QElem per root: the
    second call at a root gives the very value of the first."""
    backend = get_backend("B2", law)
    fam = BUILTIN_FAMILIES[family](backend)
    for beta in backend.datum.positive_roots:
        wt = backend.datum.root_to_weight(beta)
        for root in (wt, tuple(-c for c in wt)):
            for coefficient in (fam.a, fam.b, fam.b_inv):
                assert coefficient(root) is coefficient(list(root))


def test_a_broken_family_file_is_rejected_after_its_values_are_cached():
    """A b_inv that is not the inverse of b fails validation, also when
    every value was built before the check."""
    backend = get_backend("A2", ADDITIVE)
    spec = {
        "a": {"num": [[-1, 0, 0, 0]], "den": [["x_root", 1]]},
        "b": {"num": [[1, 0, 0, 0], [1, 1, 0, 0]], "den": [["x_root", 1]]},
        "b_inv": {"num": [[1, 0, 0, 0]], "den": []},
    }
    coefficients = read_coefficients(backend, spec, "test family")
    roots = [backend.datum.root_to_weight(beta) for beta in backend.datum.positive_roots]
    for coefficient in coefficients:
        for root in roots:
            coefficient(root)
    with pytest.raises(ValueError, match="b_inv"):
        custom_family(backend, "broken", *coefficients)


# ---------------------------------------------------------------------------
# c-coefficients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label,family,law",
    [
        ("A2", "x", ADDITIVE),
        ("A2", "t", ADDITIVE),
        ("A2", "tau", MULTIPLICATIVE),
        ("B2", "x", MULTIPLICATIVE),
        ("B2", "tau", MULTIPLICATIVE),
    ],
)
def test_c_vanishes_above_demazure_product(label, family, law):
    alg = get_algebra(label, family, law)
    datum = alg.datum
    for word in all_words(datum.rank, 6):
        cap = datum.demazure_product(word)
        for w in alg.expand_in_z_basis(word):
            assert datum.bruhat_leq(w, cap), (word, w.word)


@pytest.mark.parametrize(
    "family,law",
    [
        ("x", ADDITIVE),  # reduced-subword rule
        ("x", MULTIPLICATIVE),  # Demazure-product rule
        ("t", ADDITIVE),  # group-product rule
        ("tau", MULTIPLICATIVE),  # Hecke recursion
        ("sigma", ADDITIVE),  # group-product rule, solved from its relations
    ],
)
def test_c_supports_match_pointwise_rule(family, law):
    alg = get_algebra("A2", family, law)
    word = (1, 2, 1, 2)
    k = len(word)
    table = alg.c_supports(word)
    assert set(table) == set(alg.datum.elements)
    for w, listed in table.items():
        masks = [sum(1 << (j - 1) for j in sub) for sub, _ in listed]
        assert masks == sorted(set(masks))  # increasing bitmask order
        supports = dict(listed)
        for size in range(k + 1):
            for subset in itertools.combinations(range(1, k + 1), size):
                sub = frozenset(subset)
                letters = tuple(word[j - 1] for j in sorted(sub))
                c = alg.expand_in_z_basis(letters).get(w)
                if sub in supports:
                    assert not supports[sub].is_zero()
                    assert q_equal(supports[sub], c)
                else:
                    assert c is None


def _expected_quadratic(name, backend):
    """The constants (c1, c0) of each built-in family."""
    if name == "tau":
        return v_var(backend, 2) - one(backend), v_var(backend, 2)
    if name in ("t", "sigma"):
        return zero(backend), one(backend)
    kappa_s = zero(backend) if backend.law == ADDITIVE else one(backend)
    return kappa_s, zero(backend)  # x and y


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@pytest.mark.parametrize(
    "name,law", [(name, law) for name, entry in BUILTIN_FAMILIES.items() for law in entry.laws]
)
def test_simple_reflections_fix_the_quadratic_constants(label, name, law):
    """Algebra.quadratic, solved from the relations, is the family's known
    pair, and every s_i fixes it."""
    backend = get_backend(label, law)
    quadratic = Algebra(BUILTIN_FAMILIES[name](backend)).quadratic
    assert quadratic == _expected_quadratic(name, backend)
    datum = backend.datum
    for i in range(1, datum.rank + 1):
        s_i = datum.simple_reflection(i)
        for c in quadratic:
            assert weyl_act(backend, s_i, c) == c, (name, i)


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_a_family_that_breaks_a_braid_relation_has_no_quadratic_constants(label):
    """Z_i = 1 + delta_i solves Z_i^2 = 2 Z_i with the same W-fixed pair for
    every i; only its failing braid relations leave it without a c-rule."""
    alg = Algebra(unit_family(get_backend(label, ADDITIVE)))
    report = alg.verify_relations()
    rank = alg.datum.rank
    assert [entry["name"] for entry in report[:rank]] == [
        f"Z_{i}^2 = (2) Z_{i} + (0)" for i in range(1, rank + 1)
    ]
    assert all(entry["passed"] for entry in report[:rank])
    assert not all(entry["passed"] for entry in report[rank:])
    assert alg.quadratic is None


def test_quadratic_entries_fail_when_the_pairs_differ_across_i():
    """a(alpha) = x_alpha^2, b = b^-1 = 1 solves Z_i^2 = c1 Z_i + c0 with zero
    residual, but c1 = 2 x_{alpha_i}^2 differs between i = 1 and 2 and s_2
    moves x_{alpha_1}^2, so neither quadratic entry passes."""
    backend = get_backend("A2", ADDITIVE)

    def square(alpha):
        return QElem.from_s(x_class(backend, alpha) ** 2)

    def unit(alpha):
        return QElem.from_int(backend, 1)

    alg = Algebra(custom_family(backend, "square", square, unit, unit))
    report = alg.verify_relations()
    assert [entry["passed"] for entry in report[:2]] == [False, False]
    assert all("W-fixed" in entry["detail"] for entry in report[:2])
    assert alg.quadratic is None


# ---------------------------------------------------------------------------
# Leibniz coefficients and Billey's formula
# ---------------------------------------------------------------------------


def test_leibniz_frozen_values_x_family():
    alg = get_algebra("A2", "x", ADDITIVE)
    backend = alg.backend
    datum = alg.datum
    x1 = x_class(backend, datum.simple_root(1))
    x2 = x_class(backend, datum.simple_root(2))
    I = (1, 2, 1)
    full = {1, 2, 3}
    assert q_equal(alg.leibniz_coefficient(I, full, {1}), QElem.from_s(-x1))
    assert q_equal(alg.leibniz_coefficient(I, full, {3}), QElem.from_s(-x2))
    assert q_equal(alg.leibniz_coefficient(I, full, {1, 3}), QElem.from_s(x1 * x2))
    assert q_equal(alg.leibniz_coefficient((), set(), set()), q_int(backend, 1))


def test_leibniz_y_family_pair_sum():
    alg = get_algebra("A2", "y", ADDITIVE)
    backend = alg.backend
    total = alg.leibniz_coefficient((1, 2, 1), {1}, {1, 2}) + alg.leibniz_coefficient(
        (1, 2, 1), {3}, {1, 2}
    )
    assert q_equal(total, q_int(backend, 1))


def test_leibniz_rejects_out_of_range_positions():
    alg = get_algebra("A2", "x", ADDITIVE)
    with pytest.raises(ValueError):
        alg.leibniz_coefficient((1, 2), {3}, set())
    with pytest.raises(ValueError):
        alg.billey_closed_form((1, 2), {0})


def _leibniz_by_hand(alg, word, E, F):
    """(B_1 ... B_k) . 1 applied right to left with no cache: B_j is
    b^-1 s_i when j is in E and F, -a b^-1 s_i when in one of them, and
    a + a^2 b^-1 s_i when in neither, at the simple root of letter i."""
    value = q_int(alg.backend, 1)
    for j in range(len(word), 0, -1):
        i = word[j - 1]
        alpha = alg.datum.simple_root(i)
        a, b_inv = alg.family.a(alpha), alg.family.b_inv(alpha)
        reflected = weyl_act_q(alg.backend, alg.datum.simple_reflection(i), value)
        if j in E and j in F:
            value = b_inv * reflected
        elif j in E or j in F:
            value = -(a * b_inv) * reflected
        else:
            value = a * value + (a * a * b_inv) * reflected
    return value


@pytest.mark.parametrize(
    "label,family,law",
    [(label, family, law) for label in ("A2", "B2")
     for family, law in (("x", ADDITIVE), ("t", ADDITIVE), ("tau", MULTIPLICATIVE))],
)
def test_leibniz_coefficients_match_the_product_of_their_cases(label, family, law):
    """Every z^I_{E,F} of every word up to length 3 equals (B_1 ... B_k) . 1
    evaluated by hand, with the same printed form.  Longer words come first,
    so shorter words that end like them read the walks' shared suffixes."""
    alg = Algebra(BUILTIN_FAMILIES[family](get_backend(label, law)))
    for word in reversed(list(all_words(alg.datum.rank, 3))):
        subsets = [
            set(E) for r in range(len(word) + 1)
            for E in itertools.combinations(range(1, len(word) + 1), r)
        ]
        for E in subsets:
            for F in subsets:
                value = alg.leibniz_coefficient(word, E, F)
                expected = _leibniz_by_hand(alg, word, E, F)
                assert q_equal(value, expected), (word, E, F)
                assert qelem_to_str(value) == qelem_to_str(expected), (word, E, F)


@pytest.mark.parametrize(
    "label,family,law,max_len",
    [
        ("A2", "x", ADDITIVE, 6),
        ("A2", "x", MULTIPLICATIVE, 5),
        ("A2", "y", ADDITIVE, 5),
        ("A2", "y", MULTIPLICATIVE, 5),
        ("A2", "t", ADDITIVE, 5),
        ("A2", "tau", MULTIPLICATIVE, 4),
        ("B2", "x", ADDITIVE, 4),
    ],
)
def test_billey_equals_b_product(label, family, law, max_len):
    """The closed form must agree with the B-operator product for every E,
    including non-reduced words."""
    alg = get_algebra(label, family, law)
    for word in all_words(alg.datum.rank, max_len):
        k = len(word)
        for size in range(k + 1):
            for E in itertools.combinations(range(1, k + 1), size):
                lhs = alg.billey_closed_form(word, E)
                rhs = alg.leibniz_coefficient(word, set(range(1, k + 1)), set(E))
                assert q_equal(lhs, rhs), (word, E)


def test_billey_full_set_degenerates_to_b_inverses():
    alg = get_algebra("A2", "x", ADDITIVE)
    word = (1, 2, 1)
    k = len(word)
    value = QElem.from_int(alg.backend, 1)
    for beta in alg.datum.inversion_roots_along(word):
        value = value * alg.family.b_inv(alg.datum.root_to_weight(beta))
    assert q_equal(alg.billey_closed_form(word, range(1, k + 1)), value)


def _sum_of_terms(backend, terms):
    """sum of value * weight over pairs of Q elements.

    Each product is left unnormalized, and numerators over the same
    denominator multiset are added in S first, so only one Q addition is
    made per distinct denominator.
    """
    by_den = {}
    for value, weight in terms:
        num = value.num * weight.num
        den = tuple(sorted(value.den + weight.den))
        by_den[den] = by_den[den] + num if den in by_den else num
    total = q_int(backend, 0)
    for den, num in by_den.items():
        total = total + QElem(num, den)
    return total


def _per_pair_column(alg, word, half=True):
    """z^I_{I_u,I_v} summed pair by pair: Leibniz coefficient times c_E c_F,
    with every c from the generic elimination; only u.index <= v.index, the
    half that ``formula_column`` keeps, unless ``half`` is false."""
    supports = alg.c_supports(word)
    return {
        (u, v): _sum_of_terms(
            alg.backend,
            (
                (alg.leibniz_coefficient(word, e_set, f_set), c_e * c_f)
                for e_set, c_e in pairs_u
                for f_set, c_f in pairs_v
            ),
        )
        for u, pairs_u in supports.items()
        for v, pairs_v in supports.items()
        if not half or u.index <= v.index
    }


def _per_subset_row(alg, v):
    """b_{v,I_w} summed subset by subset: Billey's closed form times c_E,
    with every c from the generic elimination."""
    word = alg.word(v)
    return {
        w: _sum_of_terms(
            alg.backend,
            ((alg.billey_closed_form(word, e_set), c_e) for e_set, c_e in pairs),
        )
        for w, pairs in alg.c_supports(word).items()
    }


def _assert_same_entries(walk, summed, where):
    """Same nonzero support, equal values and identical printed forms.

    Identical printed forms are identical (num, den) pairs, so q_equal runs
    only where the forms differ, to tell a wrong value from a second form.
    """
    assert set(walk) == {key for key, value in summed.items() if not value.is_zero()}, where
    for key, value in walk.items():
        printed = qelem_to_str(value)
        if printed != qelem_to_str(summed[key]):
            assert q_equal(value, summed[key]), (where, key)
            assert printed == qelem_to_str(summed[key]), (where, key)


_WALK_GRIDS = [
    (label, name, law)
    for label in ("A2", "B2", "G2")
    for name, entry in BUILTIN_FAMILIES.items()
    for law in entry.laws
]
# The G2 tau sums over pairs of subwords of the longest words take minutes;
# length 5 would already add several seconds.
_WALK_MAX_LENGTH = {("G2", "tau"): 4}


@pytest.mark.parametrize(
    "label,family,law",
    _WALK_GRIDS
    + [("A3", "tau", MULTIPLICATIVE)]
    + [(label, "unit", ADDITIVE) for label in ("A2", "B2", "B3")],
)
def test_diag_reciprocal_prints_as_the_composed_leading_coefficient(label, family, law):
    """The product of the twisted b's along I_w is the delta_w coefficient of
    the composed word Z_{I_w}, in the same printed form, and no word is
    composed to find it."""
    alg = _algebra(label, family, law)
    basis = DualBasis(alg)
    diagonal = {w: qelem_to_str(basis.diag_reciprocal(w)) for w in alg.datum.elements}
    assert len(alg._compose_cache) == 1
    for w in alg.datum.elements:
        assert diagonal[w] == qelem_to_str(alg.z_basis_element(w).coeffs[w]), w.word


@pytest.mark.parametrize("label,family,law", _WALK_GRIDS)
def test_transfer_walks_match_the_per_subword_sums(label, family, law):
    """One walk per word gives the formula column, one per element the Billey
    row; both must equal the sums over subwords entry for entry."""
    alg = Algebra(BUILTIN_FAMILIES[family](get_backend(label, law)))
    max_length = _WALK_MAX_LENGTH.get((label, family), alg.datum.longest_element.length)
    for w in alg.datum.elements:
        if w.length > max_length:
            continue
        word = alg.word(w)
        _assert_same_entries(alg.formula_column(word), _per_pair_column(alg, word), word)
        _assert_same_entries(alg.billey_row(w), _per_subset_row(alg, w), word)


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("family", ["x", "y"])
def test_transfer_walks_match_the_per_subword_sums_on_the_a3_longest_word(family, law):
    alg = Algebra(BUILTIN_FAMILIES[family](get_backend("A3", law)))
    w0 = alg.datum.longest_element
    word = alg.word(w0)
    _assert_same_entries(alg.formula_column(word), _per_pair_column(alg, word), word)
    _assert_same_entries(alg.billey_row(w0), _per_subset_row(alg, w0), word)


def _count_walk_steps(monkeypatch):
    """Count the calls of each walk's per-letter step, and of the generic
    expansion, from now on."""
    counts = Counter()
    for name in ("_formula_step", "_billey_step", "expand_in_z_basis"):

        def counted(self, *args, _name=name, _step=getattr(Algebra, name)):
            counts[_name] += 1
            return _step(self, *args)

        monkeypatch.setattr(Algebra, name, counted)
    return counts


@pytest.mark.parametrize(
    "label,family,law", _WALK_GRIDS + [("A2", "unit", ADDITIVE), ("A3", "unit", ADDITIVE)]
)
def test_all_walks_share_their_suffixes_and_prefixes(monkeypatch, label, family, law):
    """Every suffix and every prefix of a lexmin word is a lexmin word, so
    all columns and all Billey rows keep |W| entries each and walk |W| - 1
    letters each.  The unit family has no quadratic constants, so its walks
    expand each move by elimination once per side, letter and element: at
    most 2 rank |W| expansions; the c-rule of the other families needs none."""
    backend = get_backend(label, law)
    alg = Algebra(unit_family(backend) if family == "unit" else BUILTIN_FAMILIES[family](backend))
    counts = _count_walk_steps(monkeypatch)
    elements = alg.datum.elements
    for w in elements:
        alg.formula_column(alg.word(w))
        alg.billey_row(w)
    assert len(alg._columns) == len(alg._billey_rows) == len(elements)
    expansions = counts.pop("expand_in_z_basis", 0)
    assert (expansions > 0) == (alg.quadratic is None)
    assert expansions <= 2 * alg.datum.rank * len(elements)
    assert counts == {"_formula_step": len(elements) - 1, "_billey_step": len(elements) - 1}


@pytest.mark.parametrize(
    "label,family,law,subset",
    [(label, family, law, None) for label, family, law in _WALK_GRIDS]
    + [("A2", "unit", ADDITIVE, None), ("B2", "unit", ADDITIVE, None),
       ("A3", "tau", MULTIPLICATIVE, (2,))],
)
def test_walks_stay_in_the_bruhat_cone(label, family, law, subset):
    """The column of I_w has entries only at (u, v) with u, v <= w, and the
    Billey row of v only at w <= v, so the Bruhat test of
    ``DualBasis.product_formula`` hides no walk entry; J-compatible words
    walk prefixes and suffixes that no element chooses."""
    datum = get_datum(label)
    words = None if subset is None else datum.j_compatible_words(subset)
    alg = _algebra(label, family, law, words)
    for w in datum.elements:
        for u, v in alg.formula_column(alg.word(w)):
            assert datum.bruhat_leq(u, w) and datum.bruhat_leq(v, w), (w.word, u.word, v.word)
        for t in alg.billey_row(w):
            assert datum.bruhat_leq(t, w), (w.word, t.word)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_a_walk_grows_by_one_letter_from_a_cached_walk(monkeypatch, label):
    """With the column of w0's word minus its first letter and the row of the
    word minus its last letter cached, w0's walks take one step each, and the
    column keeps only its half u.index <= v.index."""
    alg = Algebra(BUILTIN_FAMILIES["t"](get_backend(label, ADDITIVE)))
    w0 = alg.datum.longest_element
    word = alg.word(w0)
    alg.formula_column(word[1:])
    alg.billey_row(alg.datum.element_by_word(word[:-1]))
    counts = _count_walk_steps(monkeypatch)
    column = alg.formula_column(word)
    alg.billey_row(w0)
    assert counts == {"_formula_step": 1, "_billey_step": 1}
    assert all(u.index <= v.index for u, v in column)


@pytest.mark.parametrize("label,family,law", _WALK_GRIDS)
def test_per_pair_sums_are_symmetric(label, family, law):
    """z_{u,v} = z_{v,u} summed pair by pair, the premise of the walk's fold."""
    alg = get_algebra(label, family, law)
    max_length = _WALK_MAX_LENGTH.get((label, family), alg.datum.longest_element.length)
    for w in alg.datum.elements:
        if w.length > max_length:
            continue
        summed = _per_pair_column(alg, alg.word(w), half=False)
        for (u, v), value in summed.items():
            assert qelem_to_str(value) == qelem_to_str(summed[(v, u)]), (w.word, u.word, v.word)


_NON_LEXMIN = [
    ("A2", name, law, (2, 1, 2))
    for name, entry in BUILTIN_FAMILIES.items()
    for law in entry.laws
] + [("A3", "t", ADDITIVE, (1, 2, 3, 1, 2))]


@pytest.mark.parametrize(
    "label,family,law,word",
    _NON_LEXMIN,
    ids=[f"{label}-{name}-{law}-{''.join(map(str, word))}" for label, name, law, word in _NON_LEXMIN],
)
def test_transfer_walks_match_the_per_subword_sums_under_a_non_lexmin_word(
    label, family, law, word
):
    """A chosen word that is not lexmin: its walks start from the cached walks
    of other words and pass suffixes and prefixes that no element has chosen."""
    datum = get_datum(label)
    top = datum.element_by_word(word)
    alg = Algebra(BUILTIN_FAMILIES[family](get_backend(label, law)), {top: word})
    for w in datum.elements:
        alg.formula_column(alg.word(w))
        alg.billey_row(w)
    for j in range(len(word)):
        suffix = word[j:]
        _assert_same_entries(alg.formula_column(suffix), _per_pair_column(alg, suffix), suffix)
    _assert_same_entries(alg.billey_row(top), _per_subset_row(alg, top), word)


@pytest.mark.parametrize("label,family,law", _WALK_GRIDS)
def test_c_rule_matches_the_generic_expansion_of_one_more_letter(label, family, law):
    """The walks' one c-rule: Z_{I_w} Z_i and Z_i Z_{I_w} expanded by
    elimination are the moves of w to w s_i and to s_i w."""
    alg = get_algebra(label, family, law)
    datum = alg.datum
    for w in datum.elements:
        for i in range(1, datum.rank + 1):
            for word, neighbour in (
                (alg.word(w) + (i,), datum.multiply_simple(w, i)),
                ((i,) + alg.word(w), datum.left_multiply_simple(i, w)),
            ):
                moves = dict(alg._c_moves(w, neighbour))
                generic = alg.expand_in_z_basis(word)
                assert set(generic) == set(moves), (word, w.word)
                for target, weight in moves.items():
                    assert q_equal(generic[target], QElem.from_s(weight * one(alg.backend))), (
                        word,
                        target.word,
                    )


def test_columns_and_rows_without_quadratic_constants_are_the_per_subword_sums():
    """The unit family has no c-rule, so its walks expand each move by
    elimination; its columns and rows must match the test's own sums over
    the subwords of each word."""
    alg = Algebra(unit_family(get_backend("A2", ADDITIVE)))
    assert alg.quadratic is None
    for w in alg.datum.elements:
        word = alg.word(w)
        _assert_same_entries(alg.formula_column(word), _per_pair_column(alg, word), word)
        _assert_same_entries(alg.billey_row(w), _per_subset_row(alg, w), word)


def _reciprocal_family(backend):
    """a = 2/x_alpha, b = -1/x_alpha, b^-1 = -x_alpha.  Z_i^2 = 3/x_{alpha_i}^2
    lies outside S, so the family has no quadratic constants, and some moves
    of its walks have denominators."""

    def a(alpha):
        return QElem(2 * one(backend), [FactorSymbol(X_ROOT, alpha)])

    def b(alpha):
        return QElem(-one(backend), [FactorSymbol(X_ROOT, alpha)])

    def b_inv(alpha):
        return QElem.from_s(-x_class(backend, alpha))

    return custom_family(backend, "reciprocal", a, b, b_inv)


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_walks_with_moves_in_q_match_the_per_subword_sums_and_the_oracle(label, law):
    """The walks apply the moves of a new letter after any reflection of
    their state, so moves with values in Q need not be W-invariant: the
    columns and rows equal the sums over subwords, the formula route the
    oracle, and the Billey rows the restrictions by expansion."""
    alg = Algebra(_reciprocal_family(get_backend(label, law)))
    assert alg.quadratic is None
    for w in alg.datum.elements:
        word = alg.word(w)
        _assert_same_entries(alg.formula_column(word), _per_pair_column(alg, word), word)
        _assert_same_entries(alg.billey_row(w), _per_subset_row(alg, w), word)
    assert any(c.den for moves in alg._expanded_moves.values() for _, c in moves)
    basis = DualBasis(alg)
    assert basis.compare_routes().is_empty
    for v in alg.datum.elements:
        for w in alg.datum.elements:
            assert q_equal(basis.restriction(v, w), basis.restriction_via_billey(v, w)), (v, w)


@pytest.mark.parametrize(
    "label,family,law",
    [("B3", "x", MULTIPLICATIVE), ("A3", "x", ADDITIVE), ("G2", "t", ADDITIVE)],
)
def test_billey_rows_divide_at_most_once_per_letter(monkeypatch, label, family, law):
    """b^-1(beta_j) enters the walk one root at a time, so a whole set of
    Billey rows makes at most one exact division per letter walked, and the
    rows share their prefixes, so they walk |W| - 1 letters in all."""
    import demazure.formal

    alg = Algebra(BUILTIN_FAMILIES[family](Backend(get_datum(label), law)))
    alg.quadratic  # solved before counting: the relation check divides too
    divide = demazure.formal._divide_selem
    calls = []

    def counted(p, d):
        calls.append(None)
        return divide(p, d)

    monkeypatch.setattr(demazure.formal, "_divide_selem", counted)
    for w in alg.datum.elements:
        alg.billey_row(w)
    assert len(calls) <= len(alg.datum.elements) - 1


@pytest.mark.parametrize(
    "label,family,law,max_len,pairs",
    [
        ("A2", "x", ADDITIVE, 4, 2),
        ("A2", "y", ADDITIVE, 3, 2),
        ("A2", "x", MULTIPLICATIVE, 3, 2),
        ("A2", "t", ADDITIVE, 3, 1),
        ("A2", "tau", MULTIPLICATIVE, 3, 1),
        ("B2", "x", ADDITIVE, 3, 2),
    ],
)
def test_generalized_leibniz_rule(label, family, law, max_len, pairs):
    alg = get_algebra(label, family, law)
    rng = random.Random(f"{label}/{family}/{law}")
    report = DiscrepancyReport()
    for word in all_words(alg.datum.rank, max_len):
        for _ in range(pairs):
            p = QElem.from_s(random_selem(rng, alg.backend, nterms=2, max_exp=1))
            q = QElem.from_s(random_selem(rng, alg.backend, nterms=2, max_exp=1))
            check_generalized_leibniz(alg, word, p, q, report)
    assert report.is_empty, [entry.location for entry in report.entries]


# ---------------------------------------------------------------------------
# tau inverses
# ---------------------------------------------------------------------------


def test_tau_inverse_properties():
    alg = get_algebra("A2", "tau", MULTIPLICATIVE)
    backend = alg.backend
    datum = alg.datum
    assert alg.tau_inverse(datum.identity) == QWElem.one(backend)
    for w in datum.elements:
        inv = alg.tau_inverse(w)
        assert inv * alg.z_basis_element(w) == QWElem.one(backend)
        assert alg.z_basis_element(w) * inv == QWElem.one(backend)


def test_tau_inverse_word_independent():
    alg = get_algebra("A2", "tau", MULTIPLICATIVE)
    datum = alg.datum
    w0 = datum.element_by_word((1, 2, 1))
    other = Algebra(alg.family, {w0: (2, 1, 2)})
    assert alg.tau_inverse(w0) == other.tau_inverse(w0)


def test_tau_inverse_requires_tau():
    alg = get_algebra("A2", "x", MULTIPLICATIVE)
    with pytest.raises(ValueError):
        alg.tau_inverse(alg.datum.identity)


def test_tau_quadratic_specialization():
    alg = get_algebra("A1", "tau", MULTIPLICATIVE)
    backend = alg.backend
    z = alg.simple_element(1)
    qq = QElem.from_s(v_var(backend, 2))
    qm1 = QElem.from_s(v_var(backend, 2) - one(backend))
    assert z * z == qm1 * z + qq * QWElem.one(backend)


# ---------------------------------------------------------------------------
# Word overrides
# ---------------------------------------------------------------------------


def test_with_words_rejects_bad_words():
    alg = get_algebra("A2", "x", ADDITIVE)
    datum = alg.datum
    w0 = datum.element_by_word((1, 2, 1))
    with pytest.raises(ValueError):
        Algebra(alg.family, {w0: (1, 2)})
    with pytest.raises(ValueError):
        Algebra(alg.family, {w0: (1, 2, 1, 1, 2)})


def test_with_words_changes_basis_but_not_roundtrip():
    alg = get_algebra("A2", "x", ADDITIVE)
    datum = alg.datum
    backend = alg.backend
    w0 = datum.element_by_word((1, 2, 1))
    other = Algebra(alg.family, {w0: (2, 1, 2)})
    for u in datum.elements:
        rebuilt = QWElem.zero(backend)
        for v, coeff in other.b_row(u).items():
            rebuilt = rebuilt + coeff * other.z_basis_element(v)
        assert rebuilt == QWElem.delta(backend, u)

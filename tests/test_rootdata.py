"""Weyl group combinatorics: enumeration, words, Bruhat order, parabolics."""

from __future__ import annotations

import functools
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure.rootdata import (
    ADJOINT,
    WeylElement,
    _principal_minor,
    build_root_datum,
    named_cartan_matrix,
    validate_cartan_matrix,
)

from conftest import bruhat_leq_by_subwords, get_datum

KNOWN_ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "A4": 120,
    "B2": 8,
    "B3": 48,
    "B4": 384,
    "C3": 48,
    "D4": 192,
    "F4": 1152,
    "G2": 12,
}


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label,order", sorted(KNOWN_ORDERS.items()))
def test_known_group_orders(label, order):
    datum = get_datum(label)
    assert datum.order == order
    assert len(datum.positive_roots) == datum.longest_element.length


def test_cartan_columns_are_simple_roots_simply_connected(a2):
    # alpha_j in fundamental-weight coordinates = j-th column of the Cartan matrix
    assert a2.simple_root(1) == (2, -1)
    assert a2.simple_root(2) == (-1, 2)


def test_adjoint_lattice_simple_roots_are_unit_vectors():
    datum = get_datum("A2", ADJOINT)
    assert datum.simple_root(1) == (1, 0)
    assert datum.simple_root(2) == (0, 1)


def test_rejects_affine_cartan_matrix():
    with pytest.raises(ValueError, match="principal submatrix"):
        build_root_datum({"cartan": [[2, -2], [-2, 2]]})


def test_rejects_indefinite_rank3_submatrix():
    # The offending 2x2 block {2,3} should be named.
    bad = [[2, -1, 0], [-1, 2, -3], [0, -2, 2]]
    with pytest.raises(ValueError, match=r"\{2, 3\}"):
        build_root_datum({"cartan": bad})


@pytest.mark.parametrize(
    "bad,msg",
    [
        ([[2, -1], [0, 2]], "vanish together"),
        ([[1]], "diagonal"),
        ([[2, 1], [1, 2]], "<= 0"),
        ([[2, -1]], "square"),
    ],
)
def test_rejects_malformed_cartan(bad, msg):
    with pytest.raises(ValueError, match=msg):
        validate_cartan_matrix(bad)


def test_rank_cap_and_order_cap():
    with pytest.raises(ValueError, match="rank"):
        build_root_datum("A6")
    with pytest.raises(ValueError, match="cap"):
        build_root_datum("B5")  # |W| = 3840 > default cap
    assert build_root_datum("B5", max_order=4000).order == 3840


def _leibniz_determinant(mat) -> int:
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_principal_minors_are_exact_integer_determinants(mat):
    """Fraction-free elimination gives each principal minor exactly, as an int."""
    n = len(mat)
    for size in range(1, n + 1):
        for rows in itertools.combinations(range(n), size):
            minor = _principal_minor(mat, rows)
            assert type(minor) is int
            assert minor == _leibniz_determinant([[mat[r][c] for c in rows] for r in rows])


def test_weyl_elements_are_immutable_values():
    """Equality and hash follow (word, root_matrix) across separate builds;
    ``index`` takes no part; elements refuse assignment and survive pickling."""
    first, second = build_root_datum("B3"), build_root_datum("B3")
    for u, v in zip(first.elements, second.elements, strict=True):
        assert u is not v
        assert u == v and hash(u) == hash(v)
    w = first.elements[5]
    moved = WeylElement(w.word, w.root_matrix, index=w.index + 1)
    assert moved == w and hash(moved) == hash(w)
    assert w != first.elements[6] and w != w.word
    for name in ("word", "root_matrix", "index", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, None)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(w, protocol))
        assert copy == w and hash(copy) == hash(w)
        assert (copy.word, copy.root_matrix, copy.index) == (w.word, w.root_matrix, w.index)


def test_explicit_cartan_equals_named(b2):
    explicit = build_root_datum({"cartan": named_cartan_matrix("B2")})
    assert explicit.cartan == b2.cartan
    assert explicit.order == b2.order


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "G2"])
def test_canonical_word_is_length_lex_minimal(label):
    datum = get_datum(label)
    for w in datum.elements:
        words = datum.all_reduced_words(w)
        assert w.word == min(words)
        assert all(len(word) == w.length for word in words)
        assert all(datum.element_by_word(word) is w for word in words)


def test_reduced_word_counts_a3(a3):
    # The longest element of A3 has 16 reduced words.
    assert len(a3.all_reduced_words(a3.longest_element)) == 16


def test_g2_longest(g2):
    assert g2.longest_element.word == (1, 2, 1, 2, 1, 2)
    assert len(g2.all_reduced_words(g2.longest_element)) == 2


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_is_reduced(label):
    datum = get_datum(label)
    s121 = datum.element_by_word((1, 2, 1))
    assert datum.is_reduced_word((), datum.identity)
    assert datum.is_reduced_word((1, 2, 1), s121)
    assert not datum.is_reduced_word((1, 2), s121)
    assert not datum.is_reduced_word((1, 1), datum.identity)
    assert not datum.is_reduced_word((2, 1, 1, 2), datum.element_by_word((2, 1, 1, 2)))
    assert not datum.is_reduced_word((2, 1, 2), datum.element_by_word((1, 2)))


# ---------------------------------------------------------------------------
# Group structure and action
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_multiplication_and_inverse(label):
    datum = get_datum(label)
    for u in datum.elements:
        inv = datum.inverse(u)
        assert datum.multiply(u, inv) is datum.identity
        assert inv.length == u.length
        for v in datum.elements:
            prod = datum.multiply(u, v)
            assert datum.element_by_word(u.word + v.word) is prod


def test_simple_reflection_action_simply_connected(a2):
    alpha1, alpha2 = a2.simple_root(1), a2.simple_root(2)
    s1, s2 = a2.simple_reflection(1), a2.simple_reflection(2)
    assert a2.apply(s1, alpha1) == (-2, 1)  # s_1(alpha_1) = -alpha_1
    assert a2.apply(s1, alpha2) == (1, 1)  # s_1(alpha_2) = alpha_1 + alpha_2
    assert a2.apply(s2, alpha1) == (1, 1)
    # s_i(lambda) = lambda - lambda_i alpha_i on fundamental-weight coordinates
    lam = (3, 5)
    expected = tuple(3 * f + 5 * s - 3 * a for f, s, a in zip((1, 0), (0, 1), alpha1))
    assert a2.apply(s1, lam) == expected


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
@pytest.mark.parametrize("lattice", ["simply-connected", ADJOINT])
def test_action_is_a_group_representation(label, lattice):
    datum = get_datum(label, lattice)
    weights = [tuple((i * j + 1) % 5 - 2 for j in range(datum.rank)) for i in range(3)]
    sample = datum.elements[:: max(1, datum.order // 8)]
    for u in sample:
        for v in sample:
            uv = datum.multiply(u, v)
            for lam in weights:
                assert datum.apply(uv, lam) == datum.apply(u, datum.apply(v, lam))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_action_permutes_roots(label):
    datum = get_datum(label)
    all_roots = set(datum.positive_roots) | {
        tuple(-c for c in beta) for beta in datum.positive_roots
    }
    for w in datum.elements:
        images = {datum.root_action(w, beta) for beta in all_roots}
        assert images == all_roots


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_inversions_count_length(label):
    datum = get_datum(label)
    for w in datum.elements:
        assert len(datum.inversions(w)) == w.length
        # Along a reduced word, the partial products hit exactly the
        # inversions of w^{-1}, each positive and distinct.
        betas = datum.inversion_roots_along(w.word)
        assert len(set(betas)) == w.length
        assert all(all(c >= 0 for c in beta) for beta in betas)
        assert set(betas) == set(datum.inversions(datum.inverse(w)))


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _reflection_matrix(cartan, i):
    """s_i on root coordinates, from s_i(alpha_j) = alpha_j - A[i][j] alpha_i."""
    n = len(cartan)
    return tuple(
        tuple(int(r == c) - int(r == i - 1) * cartan[i - 1][c] for c in range(n))
        for r in range(n)
    )


def _goes_up(mat, i):
    """w s_i > w exactly when w(alpha_i), column i of w's root matrix, is positive."""
    return any(row[i - 1] > 0 for row in mat)


@pytest.mark.parametrize(
    "spec,lattice",
    [(label, "simply-connected") for label in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2")]
    + [("B3", ADJOINT), ({"cartan": [[2, 0, 0], [0, 2, -1], [0, -2, 2]]}, "simply-connected")],
    ids=lambda p: p if isinstance(p, str) else "explicit-A1xB2",
)
def test_product_table_matches_root_matrix_arithmetic(spec, lattice):
    datum = get_datum(spec, lattice) if isinstance(spec, str) else build_root_datum(spec)
    n = datum.rank
    refl = {i: _reflection_matrix(datum.cartan, i) for i in range(1, n + 1)}
    by_matrix = {w.root_matrix: w for w in datum.elements}
    identity = datum.identity.root_matrix
    assert len(by_matrix) == datum.order
    assert list(datum.elements) == sorted(datum.elements, key=WeylElement.sort_key)
    assert all(datum.elements[w.index] is w for w in datum.elements)
    for i in range(1, n + 1):
        assert datum.simple_reflection(i).root_matrix == refl[i]
    for w in datum.elements:
        assert _mat_mul(w.root_matrix, datum.inverse(w).root_matrix) == identity
        for i in range(1, n + 1):
            product = by_matrix[_mat_mul(w.root_matrix, refl[i])]
            assert datum.multiply_simple(w, i) is product
            assert datum.left_multiply_simple(i, w) is by_matrix[_mat_mul(refl[i], w.root_matrix)]
            assert datum.has_right_descent(w, i) == (not _goes_up(w.root_matrix, i))
    for u in datum.elements:
        for v in datum.elements:
            assert datum.multiply(u, v) is by_matrix[_mat_mul(u.root_matrix, v.root_matrix)]
    words = [word for k in range(5) for word in itertools.product(range(1, n + 1), repeat=k)]
    words += [w.word + w.word for w in datum.elements]
    for word in words:
        mat = prefix = identity
        betas = []
        for i in word:
            alpha = tuple(int(k == i - 1) for k in range(n))
            betas.append(tuple(sum(x * y for x, y in zip(row, alpha)) for row in prefix))
            prefix = _mat_mul(prefix, refl[i])
            if _goes_up(mat, i):
                mat = _mat_mul(mat, refl[i])
        assert datum.demazure_product(word) is by_matrix[mat], word
        assert datum.inversion_roots_along(word) == tuple(betas), word


def _lattice_reflection(datum, i):
    """s_i on lattice coordinates, from s_i(e_j) = e_j - <e_j, alpha_i^vee> alpha_i:
    the pairing is delta_ij on fundamental weights and A[i][j] on simple roots."""
    n, alpha = datum.rank, datum.simple_root(i)
    pairing = [
        datum.cartan[i - 1][j] if datum.lattice == ADJOINT else int(j == i - 1) for j in range(n)
    ]
    return tuple(tuple(int(r == j) - pairing[j] * alpha[r] for j in range(n)) for r in range(n))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
@pytest.mark.parametrize("lattice", ["simply-connected", ADJOINT])
def test_lattice_matrices_and_inverses_are_the_folds_of_their_words(label, lattice):
    """The tables recorded at enumeration equal the word folds they replace:
    the lattice matrix is the product of the simple lattice reflections along
    w.word, and the inverse is the element of the reversed word."""
    datum = get_datum(label, lattice)
    refl = {i: _lattice_reflection(datum, i) for i in range(1, datum.rank + 1)}
    for w in datum.elements:
        mat = datum.identity.root_matrix
        for i in w.word:
            mat = _mat_mul(mat, refl[i])
        assert datum.lattice_matrix(w) == mat, w.word
        assert datum.inverse(w) is datum.element_by_word(w.word[::-1]), w.word


# ---------------------------------------------------------------------------
# Bruhat order and Demazure product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_bruhat_matches_subword_oracle(label):
    datum = get_datum(label)
    for u in datum.elements:
        for w in datum.elements:
            assert datum.bruhat_leq(u, w) == bruhat_leq_by_subwords(datum, u, w)


def _bruhat_leq_by_descents(datum):
    """Bruhat order by the left-descent recursion, memoized: for the first
    letter s of w, u <= w iff s u <= s w when s u < u, and u <= s w
    otherwise.  The reference for the interval table."""

    @functools.cache
    def leq(u, w):
        if u.length == 0 or u.length > w.length:
            return u.length == 0
        s = datum.simple_reflection(w.word[0])
        sw, su = datum.multiply(s, w), datum.multiply(s, u)
        return leq(su, sw) if su.length < u.length else leq(u, sw)

    return leq


@pytest.mark.parametrize(
    "label,lattice",
    [("B2", ADJOINT)]
    + [
        (label, "simply-connected")
        for label in ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "D4")
    ],
)
def test_bruhat_table_matches_the_descent_recursion(label, lattice):
    datum = get_datum(label, lattice)
    leq = _bruhat_leq_by_descents(datum)
    for u in datum.elements:
        above = [w.index for w in datum.elements if leq(u, w)]
        assert [w.index for w in datum.members(datum.upper_intervals[u.index])] == above, u.word
        assert all(datum.bruhat_leq(u, w) == leq(u, w) for w in datum.elements)


def test_bruhat_is_a_partial_order(b2):
    elems = b2.elements
    for u in elems:
        assert b2.bruhat_leq(u, u)
        for v in elems:
            if b2.bruhat_leq(u, v) and b2.bruhat_leq(v, u):
                assert u is v
            for w in elems:
                if b2.bruhat_leq(u, v) and b2.bruhat_leq(v, w):
                    assert b2.bruhat_leq(u, w)


@settings(max_examples=150, deadline=None)
@given(
    label=st.sampled_from(["A2", "B2", "G2"]),
    data=st.data(),
)
def test_demazure_product_is_bruhat_max_over_subwords(label, data):
    datum = get_datum(label)
    word = data.draw(
        st.lists(st.integers(1, datum.rank), min_size=0, max_size=6).map(tuple)
    )
    w = datum.demazure_product(word)
    products = set()
    for k in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), k):
            products.add(datum.element_by_word(tuple(word[p] for p in positions)))
    assert w in products
    assert all(datum.bruhat_leq(v, w) for v in products)


def test_demazure_product_of_reduced_word_is_the_element(a3):
    for w in a3.elements:
        assert a3.demazure_product(w.word) is w
        assert a3.demazure_product(w.word + w.word[-1:] if w.word else ()) is w


# ---------------------------------------------------------------------------
# Parabolic structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label,J",
    [("A2", (1,)), ("A2", (2,)), ("B2", (1,)), ("B2", (2,)), ("A3", (1, 3)), ("A3", (1, 2))],
)
def test_min_coset_reps_and_factorization(label, J):
    datum = get_datum(label)
    reps = datum.min_coset_reps(J)
    subgroup = [w for w in datum.elements if set(w.word) <= set(J)]
    assert len(reps) * len(subgroup) == datum.order
    seen = set()
    for w in datum.elements:
        u, v = datum.coset_factorization(w, J)
        assert u in reps and v in subgroup
        assert datum.multiply(u, v) is w
        assert u.length + v.length == w.length
        seen.add((u, v))
    assert len(seen) == datum.order


@pytest.mark.parametrize("label,J", [("A2", (1,)), ("B2", (2,)), ("A3", (1, 3))])
def test_j_compatible_words(label, J):
    datum = get_datum(label)
    words = datum.j_compatible_words(J)
    reps = set(datum.min_coset_reps(J))
    for w, word in words.items():
        assert len(word) == w.length
        assert datum.element_by_word(word) is w
        u, v = datum.coset_factorization(w, J)
        assert word == u.word + v.word
        assert set(v.word) <= set(J)
        if w in reps:
            assert word == w.word


def test_weight_length_validation(a2):
    with pytest.raises(ValueError, match="coordinates"):
        a2.apply(a2.identity, (1, 2, 3))
    with pytest.raises(ValueError, match="out of range"):
        a2.element_by_word((3,))
    for i in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            a2.multiply_simple(a2.identity, i)
        with pytest.raises(ValueError, match="out of range"):
            a2.has_right_descent(a2.identity, i)

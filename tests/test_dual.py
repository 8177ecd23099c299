"""Dual bases: products by two routes, stable bases, restrictions, parabolic."""

import itertools
from fractions import Fraction

import pytest

from conftest import get_datum, unit_family
from demazure.dual import (
    CohStableBasis,
    DiscrepancyReport,
    DualBasis,
    DualElem,
    KStableBasis,
    bullet,
    pairing,
    point_class,
)
from demazure.formal import (
    ADDITIVE,
    MULTIPLICATIVE,
    Backend,
    FactorSymbol,
    HAT_ADDITIVE,
    QElem,
    SElem,
    X_ROOT,
    divide_exact,
    expand_factor,
    h_var,
    linear_form,
    one,
    product_over_positive_roots,
    q_equal,
    weyl_act_q,
    x_class,
)
from demazure.twisted import (
    Algebra,
    BUILTIN_FAMILIES,
    QWElem,
    expand_in_triangular_basis,
)

BASIS_CACHE = {}


def get_basis(label, family_name, law):
    key = (label, family_name, law)
    if key not in BASIS_CACHE:
        backend = Backend(get_datum(label), law)
        BASIS_CACHE[key] = DualBasis(Algebra(BUILTIN_FAMILIES[family_name](backend)))
    return BASIS_CACHE[key]


def q_int(backend, value):
    return QElem.from_int(backend, value)


def by_word(datum, text):
    return datum.element_by_word(tuple(int(c) for c in text))


def wt(datum, *indices):
    acc = None
    for i in indices:
        root = datum.simple_root(i)
        acc = root if acc is None else tuple(a + b for a, b in zip(acc, root))
    return acc


# ---------------------------------------------------------------------------
# DualElem arithmetic and the bullet action
# ---------------------------------------------------------------------------


def test_compare_rows_reads_a_missing_key_as_zero():
    datum = get_datum("A2")
    backend = Backend(datum, ADDITIVE)
    e, s1, s2 = datum.identity, by_word(datum, "1"), by_word(datum, "2")
    report = DiscrepancyReport()
    formula = {s2: q_int(backend, 1), s1: q_int(backend, 3)}
    oracle = {e: q_int(backend, 0), s2: q_int(backend, 1)}
    report.compare_rows(("u", "v"), formula, oracle)
    assert [entry.as_json_entry() for entry in report.entries] == [
        {"location": ["u", "v", "1"], "formula": "3", "oracle": "0"}
    ]


def test_dualelem_unit_and_support():
    basis = get_basis("A2", "x", ADDITIVE)
    unit = basis.unit()
    datum = basis.datum
    assert unit.support() == tuple(sorted(datum.elements, key=lambda w: (w.length, w.word)))
    for w in datum.elements:
        assert q_equal(unit.coeff(w), q_int(basis.backend, 1))


def test_dualelem_ring_axioms():
    basis = get_basis("A2", "x", ADDITIVE)
    backend = basis.backend
    datum = basis.datum
    s1 = by_word(datum, "1")
    s2 = by_word(datum, "2")
    g1 = basis.dual_basis_element(s1)
    g2 = basis.dual_basis_element(s2)
    g3 = basis.pt(datum.longest_element)
    assert g1 * g2 == g2 * g1
    assert (g1 * g2) * g3 == g1 * (g2 * g3)
    assert g1 * basis.unit() == g1
    assert g1 * (g2 + g3) == g1 * g2 + g1 * g3
    assert (g1 - g1).is_zero()
    assert -(-g1) == g1
    x1 = QElem.from_s(x_class(backend, wt(datum, 1)))
    assert x1 * (g1 + g2) == x1 * g1 + x1 * g2


@pytest.mark.parametrize("cls", [QWElem, DualElem])
def test_weyl_indexed_maps_never_store_a_zero(cls):
    backend = Backend(get_datum("A2"), ADDITIVE)
    datum = backend.datum
    e, s1 = datum.identity, by_word(datum, "1")
    x = x_class(backend, wt(datum, 1))
    g = cls(backend, {e: 1, s1: x})
    assert q_equal(g.coeffs[e], q_int(backend, 1))  # the int is coerced to Q
    assert cls(backend, {e: 0, s1: SElem.constant(backend, 0)}).coeffs == {}
    single = QWElem.delta if cls is QWElem else DualElem.f
    cancelled = [g - g, g + (-g), 0 * g, single(backend, s1, x) + single(backend, s1, -x)]
    for z in cancelled:
        assert z.coeffs == {}
    for z in cancelled + [g, -g, QElem.from_s(x) * g, g + g]:
        assert z.is_zero() == (not z.coeffs)
        assert all(not c.is_zero() for c in z.coeffs.values())
    other = DualElem if cls is QWElem else QWElem
    assert g == cls(backend, g.coeffs)
    assert (g == other(backend, g.coeffs)) is False


def test_s_element_times_an_unknown_operand_defers_to_the_operand():
    backend = Backend(get_datum("A2"), ADDITIVE)
    datum = backend.datum
    e, s1 = datum.identity, by_word(datum, "1")
    x = x_class(backend, wt(datum, 1))
    g_coeffs = {e: 1, s1: h_var(backend)}
    for g in (
        QWElem(backend, g_coeffs),
        DualElem(backend, g_coeffs),
        QElem(h_var(backend), [FactorSymbol(HAT_ADDITIVE, wt(datum, 2))]),
    ):
        product = x * g
        assert type(product) is type(g)
        assert product == QElem.from_s(x) * g
    with pytest.raises(TypeError):
        x * "x"


def test_bullet_is_left_action():
    basis = get_basis("A2", "x", ADDITIVE)
    alg = basis.algebra
    f = basis.pt(basis.datum.identity) + basis.dual_basis_element(by_word(basis.datum, "21"))
    z1 = alg.compose_word((1, 2))
    z2 = alg.compose_word((2, 1, 2))
    assert bullet(z1 * z2, f) == bullet(z1, bullet(z2, f))


def test_bullet_is_adjoint_to_right_multiplication():
    basis = get_basis("A2", "x", ADDITIVE)
    alg = basis.algebra
    datum = basis.datum
    f = basis.pt(datum.identity) + basis.dual_basis_element(by_word(datum, "12"))
    for z_word, zp_word in (((1,), (2, 1)), ((1, 2), (1,)), ((2, 1, 2), (1, 2))):
        z = alg.compose_word(z_word)
        z_prime = alg.compose_word(zp_word)
        assert q_equal(pairing(bullet(z, f), z_prime), pairing(f, z_prime * z))


def test_point_class_formula():
    basis = get_basis("A2", "x", MULTIPLICATIVE)
    backend = basis.backend
    datum = basis.datum
    w = by_word(datum, "12")
    pt = basis.pt(w)
    assert pt.support() == (w,)
    assert pt == point_class(backend, w)
    # pt_e is the product of x_{-alpha} over positive roots, sitting at f_e.
    expected = product_over_positive_roots(
        backend, lambda weight: x_class(backend, tuple(-c for c in weight))
    )
    assert q_equal(basis.pt(datum.identity).coeff(datum.identity), QElem.from_s(expected))


# ---------------------------------------------------------------------------
# Dual basis elements: triangularity, duality, identity class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,law", [("x", ADDITIVE), ("y", MULTIPLICATIVE), ("t", ADDITIVE)])
def test_dual_class_triangular_support(family, law):
    basis = get_basis("A2", family, law)
    datum = basis.datum
    for u in datum.elements:
        dual = basis.dual_basis_element(u)
        assert u in dual.support()
        for w in dual.support():
            assert datum.bruhat_leq(u, w)
        assert q_equal(dual.coeff(u) * basis.diag_reciprocal(u), q_int(basis.backend, 1))


@pytest.mark.parametrize("family,law", [("x", ADDITIVE), ("x", MULTIPLICATIVE), ("y", ADDITIVE)])
def test_identity_class_is_the_unit(family, law):
    basis = get_basis("A2", family, law)
    assert basis.dual_basis_element(basis.datum.identity) == basis.unit()


@pytest.mark.parametrize(
    "family,law",
    [("x", ADDITIVE), ("y", MULTIPLICATIVE), ("t", ADDITIVE), ("tau", MULTIPLICATIVE)],
)
def test_duality_pairing_identity_matrix(family, law):
    basis = get_basis("A2", family, law)
    backend = basis.backend
    for u in basis.datum.elements:
        for v in basis.datum.elements:
            expected = q_int(backend, 1 if u == v else 0)
            assert q_equal(basis.duality_pairing(u, v), expected)


# ---------------------------------------------------------------------------
# Products: the two routes and their table forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,law", [("x", ADDITIVE), ("tau", MULTIPLICATIVE)])
def test_routes_agree_on_a2(family, law):
    basis = get_basis("A2", family, law)
    assert basis.compare_routes().is_empty


def test_routes_agree_on_a2_for_a_family_without_quadratic_constants():
    """Z_i = 1 + delta_i breaks the braid relations, so it has no c-rule: its
    formula columns and Billey rows are walks whose moves come from the
    generic elimination, one of each per word; both still match the oracle,
    which eliminates in Q."""
    basis = DualBasis(Algebra(unit_family(Backend(get_datum("A2"), ADDITIVE))))
    assert basis.algebra.quadratic is None
    assert basis.compare_routes().is_empty
    for v in basis.datum.elements:
        for w in basis.datum.elements:
            assert q_equal(basis.restriction(v, w), basis.restriction_via_billey(v, w))
    assert len(basis.algebra._columns) == len(basis.algebra._billey_rows) == len(basis.order)


@pytest.mark.parametrize("family,law", [("y", ADDITIVE), ("t", ADDITIVE)])
def test_product_support_lies_in_upper_cone(family, law):
    basis = get_basis("A2", family, law)
    datum = basis.datum
    for u in datum.elements:
        for v in datum.elements:
            for w in basis.product_oracle(u, v):
                assert datum.bruhat_leq(u, w) and datum.bruhat_leq(v, w)


@pytest.mark.parametrize("u_word,v_word", [("1", "2"), ("12", "32"), ("", "213"), ("121", "121")])
def test_a_single_product_walks_only_the_columns_above_both_factors(u_word, v_word):
    """The formula route reads the columns of the common upper interval of u
    and v alone, so a fresh basis keeps only the reversed suffixes of their
    words."""
    backend = Backend(get_datum("A3"), ADDITIVE)
    basis = DualBasis(Algebra(BUILTIN_FAMILIES["x"](backend)))
    datum = basis.datum
    u, v = by_word(datum, u_word), by_word(datum, v_word)
    basis.product_formula(u, v)
    above = [w for w in datum.elements if datum.bruhat_leq(u, w) and datum.bruhat_leq(v, w)]
    words = [basis.algebra.word(w) for w in above]
    suffixes = {word[k:][::-1] for word in words for k in range(len(word) + 1)}
    assert basis.algebra._columns.keys() <= suffixes
    assert datum.longest_element.word[::-1] in basis.algebra._columns


_QUADRATIC_FAMILIES = [
    ("x", ADDITIVE), ("x", MULTIPLICATIVE), ("y", ADDITIVE), ("y", MULTIPLICATIVE),
    ("t", ADDITIVE), ("tau", MULTIPLICATIVE), ("sigma", ADDITIVE),
]


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@pytest.mark.parametrize("family,law", _QUADRATIC_FAMILIES)
def test_oracle_in_s_matches_the_elimination_in_q(label, family, law):
    """The scaled elimination in S gives the same (num, den) as expanding the
    product of the dual classes in Q, for every pair (every seventh pair on G2
    tau, where the Q elimination of all 144 pairs takes about 30 s)."""
    basis = get_basis(label, family, law)
    dual = basis.dual_basis_element
    pairs = list(itertools.product(basis.order, repeat=2))
    if (label, family) == ("G2", "tau"):
        pairs = pairs[::7]
    for u, v in pairs:
        in_s = basis.product_oracle(u, v)
        in_q = basis.expand(dual(u) * dual(v))
        assert set(in_s) == set(in_q)
        for w, val in in_q.items():
            assert (in_s[w].num, in_s[w].den) == (val.num, val.den)


@pytest.mark.parametrize("family,law", [("t", ADDITIVE), ("tau", MULTIPLICATIVE)])
def test_scaled_product_leaves_every_cached_class_unchanged(family, law):
    """The elimination in S updates its residues in place; it must never
    write into a cached scaled class, whose entries are its columns."""
    basis = DualBasis(Algebra(BUILTIN_FAMILIES[family](Backend(get_datum("A2"), law))))
    before = {
        u: {w: dict(val.terms) for w, val in basis.scaled_class(u).items()}
        for u in basis.order
    }
    for u, v in itertools.product(basis.order, repeat=2):
        basis.scaled_product(u, v)
    # The solver copies its input too: here the input is a cached class.
    for u in basis.order:
        assert expand_in_triangular_basis(
            basis.order,
            basis.scaled_class(u),
            basis.scaled_class,
            lambda w, cur: divide_exact(basis.backend, cur, basis.scaled_class(w)[w]),
        ) == {u: one(basis.backend)}
    after = {
        u: {w: dict(val.terms) for w, val in basis.scaled_class(u).items()}
        for u in basis.order
    }
    assert after == before


def test_compare_routes_runs_the_oracle_once_per_unordered_pair(monkeypatch):
    """A wrong oracle row for {u, v} is reported at both orders, although the
    oracle runs only for the order with the lower index first."""
    basis = DualBasis(Algebra(BUILTIN_FAMILIES["x"](Backend(get_datum("A2"), ADDITIVE))))
    s1, s2 = by_word(basis.datum, "1"), by_word(basis.datum, "2")
    honest = basis.product_oracle
    calls = []

    def oracle(u, v):
        calls.append((u, v))
        row = dict(honest(u, v))
        if {u, v} == {s1, s2}:
            row[basis.datum.longest_element] = QElem.from_int(basis.backend, 7)
        return row

    monkeypatch.setattr(basis, "product_oracle", oracle)
    report = basis.compare_routes()
    n = len(basis.order)
    assert len(calls) == n * (n + 1) // 2
    assert all(u.index <= v.index for u, v in calls)
    assert [entry.location for entry in report.entries] == [("1", "2", "121"), ("2", "1", "121")]
    assert not basis.compare_routes([(s2, s1)]).is_empty


def test_oracle_in_s_raises_instead_of_returning_a_wrong_value():
    def fresh_basis():
        return DualBasis(Algebra(BUILTIN_FAMILIES["t"](Backend(get_datum("A2"), ADDITIVE))))

    pairs = list(itertools.product(fresh_basis().order, repeat=2))
    # A scale short of one factor leaves a denominator in some class.
    basis = fresh_basis()
    basis._scale_factors = basis.scale_factors()[1:]
    with pytest.raises(ValueError, match="denominator"):
        for u, v in pairs:
            basis.product_oracle(u, v)
    # A diagonal entry that does not divide the residue fails its division:
    # the constants are homogeneous, so none is a multiple of h + 1.
    basis = fresh_basis()
    w0 = basis.datum.longest_element
    column = dict(basis.scaled_class(w0))
    column[w0] = column[w0] * (h_var(basis.backend) + one(basis.backend))
    basis._scaled_cache[w0] = column
    with pytest.raises(ValueError, match="does not divide"):
        for u, v in pairs:
            basis.product_oracle(u, v)


def _reflections(datum):
    """{positive root vector gamma: s_gamma}, from gamma = u(alpha_i)."""
    out = {}
    for u in datum.elements:
        for i in range(1, datum.rank + 1):
            gamma = datum.root_action(u, tuple(int(j == i) for j in range(1, datum.rank + 1)))
            if gamma in datum.positive_roots and gamma not in out:
                s_i = datum.simple_reflection(i)
                out[gamma] = datum.multiply(datum.multiply(u, s_i), datum.inverse(u))
    assert len(out) == len(datum.positive_roots)
    return out


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
@pytest.mark.parametrize("family", ["x", "y", "t", "tau", "sigma"])
def test_scaled_classes_satisfy_the_gkm_conditions(label, family):
    """N_w is the product scale * Z*_{I_w} taken in Q, and N_w(v) - N_w(s_gamma v)
    is divisible by x_gamma for every gamma > 0 (Goresky-Kottwitz-MacPherson),
    under every law of the family."""
    for law in BUILTIN_FAMILIES[family].laws:
        basis = get_basis(label, family, law)
        backend, datum = basis.backend, basis.datum
        scale = one(backend)
        for factor in basis.scale_factors():
            scale = scale * expand_factor(backend, factor)
        for w in basis.order:
            expected = {
                v: (QElem.from_s(scale) * val).as_selem()
                for v, val in basis.dual_basis_element(w).coeffs.items()
            }
            assert basis.scaled_class(w) == expected, (law, w)
        zero_s = SElem.constant(backend, 0)
        for gamma, s_gamma in _reflections(datum).items():
            x_gamma = FactorSymbol(X_ROOT, datum.root_to_weight(gamma))
            for w in basis.order:
                n_w = basis.scaled_class(w)
                for v in basis.order:
                    diff = n_w.get(v, zero_s) - n_w.get(datum.multiply(s_gamma, v), zero_s)
                    assert divide_exact(backend, diff, x_gamma) is not None, (law, w, v, gamma)


def _lattice_coordinates_in_negative_simple_roots(datum):
    """Each lattice coordinate t_i as a linear form in y_j = -x_{alpha_j}.

    x_{alpha_j} = sum_i simple_root(j)[i] t_i, so t = M^-1 x with
    M[j][i] = simple_root(j)[i], inverted here by Gauss-Jordan elimination.
    """
    n = datum.rank
    rows = [
        [Fraction(c) for c in datum.simple_root(j + 1)] + [Fraction(i == j) for i in range(n)]
        for j in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [val / rows[col][col] for val in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [
        {tuple(int(k == j) for k in range(n)): -rows[i][n + j] for j in range(n) if rows[i][n + j]}
        for i in range(n)
    ]


def _substitute(poly, t_in_y):
    """The polynomial in the t_i (no h) with each t_i replaced by t_in_y[i]."""

    def times(p, q):
        out = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return out

    n = len(t_in_y)
    total = {}
    for exps, coeff in poly.terms.items():
        assert exps[n] == 0
        term = {(0,) * n: Fraction(coeff)}
        for i in range(n):
            for _ in range(exps[i]):
                term = times(term, t_in_y[i])
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


@pytest.mark.parametrize("label,count", [("A2", 44), ("B2", 94), ("G2", 284), ("A3", 1105)])
def test_x_constants_are_graham_positive(label, count):
    """Every additive x constant, written in the negative simple roots
    y_j = -x_{alpha_j}, has nonnegative coefficients (Graham positivity)."""
    basis = get_basis(label, "x", ADDITIVE)
    t_in_y = _lattice_coordinates_in_negative_simple_roots(basis.datum)
    seen = 0
    for u, v in itertools.product(basis.order, repeat=2):
        for w, value in basis.product_oracle(u, v).items():
            assert not value.den
            negative = {e: c for e, c in _substitute(value.num, t_in_y).items() if c < 0}
            assert not negative, (u.word, v.word, w.word, negative)
            seen += 1
    assert seen == count


def _symmetrizer(cartan):
    """The d with d_j cartan[j][k] = d_k cartan[k][j], so that
    (alpha_j, alpha_k) = d_j cartan[j][k] is symmetric; d_1 = 1 on a
    connected diagram."""
    d = [Fraction(1)] + [None] * (len(cartan) - 1)
    while None in d:
        for j, k in itertools.permutations(range(len(cartan)), 2):
            if d[j] is not None and d[k] is None and cartan[j][k]:
                d[k] = d[j] * cartan[j][k] / cartan[k][j]
    return d


def _chevalley_row(basis, reflections, d, i, v):
    """The product [s_i] [v] by the equivariant Chevalley formula: the
    diagonal v(omega_i) - omega_i, and at each cover w = v s_beta of v the
    integer <omega_i, beta^vee> = c_i (alpha_i, alpha_i) / (beta, beta),
    with ``d`` the symmetrizer."""
    datum, backend = basis.datum, basis.backend
    cartan, n = datum.cartan, datum.rank

    def form(a, b):
        return sum(a[j] * b[k] * d[j] * cartan[j][k] for j in range(n) for k in range(n))

    omega = tuple(int(j == i - 1) for j in range(n))  # also alpha_i in root coordinates
    diagonal = [a - b for a, b in zip(datum.apply(v, omega), omega)]
    row = {v: QElem.from_s(linear_form(backend, diagonal))}
    for beta, s_beta in reflections.items():
        w = datum.multiply(v, s_beta)
        if w.length == v.length + 1:
            pairing = beta[i - 1] * form(omega, omega) / form(beta, beta)
            assert pairing.denominator == 1
            row[w] = QElem.from_int(backend, int(pairing))
    return row


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_equivariant_chevalley_formula_on_both_routes(label):
    """[s_i] [v] = (v(omega_i) - omega_i) [v] + sum over the covers
    w = v s_beta of v of <omega_i, beta^vee> [w], for the x family on the
    additive law and the simply-connected lattice, by the formula route and
    by the oracle route."""
    basis = get_basis(label, "x", ADDITIVE)
    datum = basis.datum
    reflections, d = _reflections(datum), _symmetrizer(datum.cartan)
    zero = QElem.from_int(basis.backend, 0)
    for i in range(1, datum.rank + 1):
        s_i = datum.simple_reflection(i)
        for v in datum.elements:
            expected = _chevalley_row(basis, reflections, d, i, v)
            for route in (basis.product_formula, basis.product_oracle):
                got = route(s_i, v)
                for w in datum.elements:
                    assert q_equal(got.get(w, zero), expected.get(w, zero)), (
                        route.__name__, i, v.word, w.word
                    )


def test_structure_constant_word_independent_for_braid_families():
    basis = get_basis("A2", "x", ADDITIVE)
    datum = basis.datum
    w0 = datum.longest_element
    s1 = by_word(datum, "1")
    s2 = by_word(datum, "2")
    a = basis.structure_constant(s1, s2, w0, top_word=(1, 2, 1))
    b = basis.structure_constant(s1, s2, w0, top_word=(2, 1, 2))
    assert q_equal(a, b)


def test_structure_constant_rejects_bad_top_word():
    basis = get_basis("A2", "x", ADDITIVE)
    datum = basis.datum
    w0 = datum.longest_element
    s1 = by_word(datum, "1")
    with pytest.raises(ValueError):
        basis.structure_constant(s1, s1, w0, top_word=(1, 2))
    with pytest.raises(ValueError):
        basis.structure_constant(s1, s1, w0, top_word=(1, 2, 1, 1, 2))


# ---------------------------------------------------------------------------
# The generic-family A3 worked product (with the corrected denominator)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,law",
    [("x", ADDITIVE), ("x", MULTIPLICATIVE), ("y", ADDITIVE), ("y", MULTIPLICATIVE)],
)
def test_a3_single_term_product_all_positive_roots_in_denominator(family, law):
    """z^{I_w0}_{I_u,I_v} = a_{a1} a_{a2} / prod_{alpha>0} b_alpha for
    I_u=(2,3,1,2,1), I_v=(1,2,3,2,1), I_w0=(1,2,3,1,2,1); the product
    Z*_u Z*_v is supported on w0 alone.  The denominator runs over all six
    positive roots (the printed form of this example drops b_{alpha_3})."""
    datum = get_datum("A3")
    backend = Backend(datum, law)
    algebra = Algebra(BUILTIN_FAMILIES[family](backend))
    u = datum.element_by_word((2, 3, 1, 2, 1))
    v = datum.element_by_word((1, 2, 3, 2, 1))
    w0 = datum.longest_element
    algebra = Algebra(
        algebra.family, {u: (2, 3, 1, 2, 1), v: (1, 2, 3, 2, 1), w0: (1, 2, 3, 1, 2, 1)}
    )
    basis = DualBasis(algebra)
    fam = algebra.family
    expected = fam.a(wt(datum, 1)) * fam.a(wt(datum, 2))
    for beta in datum.positive_roots:
        expected = expected * fam.b_inv(datum.root_to_weight(beta))
    value = basis.structure_constant(u, v, w0)
    assert q_equal(value, expected)
    rows = basis.product_oracle(u, v)
    assert set(rows) == {w0}
    assert q_equal(rows[w0], expected)


# ---------------------------------------------------------------------------
# Restrictions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,law", [("x", ADDITIVE), ("x", MULTIPLICATIVE), ("t", ADDITIVE)])
def test_billey_route_matches_expansion_route(family, law):
    basis = get_basis("A2", family, law)
    for v in basis.datum.elements:
        for w in basis.datum.elements:
            assert q_equal(basis.restriction(v, w), basis.restriction_via_billey(v, w))


def test_restriction_vanishes_unless_below():
    basis = get_basis("A2", "x", ADDITIVE)
    datum = basis.datum
    for v in datum.elements:
        for w in datum.elements:
            if not datum.bruhat_leq(w, v):
                assert basis.restriction(v, w).is_zero()


def test_restriction_matrix_identity_holds_on_a2():
    basis = get_basis("A2", "x", ADDITIVE)
    for w in basis.datum.elements:
        assert basis.check_restriction_matrices(w).is_empty


def test_restriction_matrices_shapes():
    basis = get_basis("A2", "y", ADDITIVE)
    datum = basis.datum
    w = by_word(datum, "12")
    p_mat, b_mat, bw_mat = basis.restriction_matrices(w)
    order = basis.order
    assert set(p_mat) == {(u, v) for u in order for v in order}
    # bw is diagonal: entries vanish off the diagonal.
    for (u, v), value in bw_mat.items():
        if u is not v:
            assert value.is_zero()


def test_structure_constant_equals_restriction_for_every_reduced_word():
    basis = get_basis("A2", "x", ADDITIVE)
    datum = basis.datum
    for v in datum.elements:
        for w in datum.elements:
            expected = basis.restriction(v, w)
            for word in datum.all_reduced_words(v):
                value = basis.structure_constant(w, v, v, top_word=word)
                assert q_equal(value, expected), (v, w, word)


# ---------------------------------------------------------------------------
# Bott-Samelson classes and the additive sign bridge
# ---------------------------------------------------------------------------


def test_bott_samelson_expands_integrally():
    basis = get_basis("A2", "x", ADDITIVE)
    for word in ((), (1,), (1, 2), (2, 1, 2), (1, 2, 1, 2)):
        zeta = basis.bott_samelson_class(word)
        for coeff in basis.expand(zeta).values():
            coeff.as_selem()  # raises if not in S


def test_additive_sign_bridge_between_x_and_y_classes():
    x_basis = get_basis("A2", "x", ADDITIVE)
    y_basis = get_basis("A2", "y", ADDITIVE)
    backend = x_basis.backend
    for w in x_basis.datum.elements:
        sign = q_int(backend, (-1) ** w.length)
        assert x_basis.dual_basis_element(w) == sign * y_basis.dual_basis_element(w)
    # and between the Bott-Samelson classes of a reduced word
    for word in ((1,), (1, 2), (1, 2, 1)):
        sign = q_int(backend, (-1) ** len(word))
        assert x_basis.bott_samelson_class(word) == sign * y_basis.bott_samelson_class(word)


def test_additive_sign_bridge_between_structure_constants():
    x_basis = get_basis("A2", "x", ADDITIVE)
    y_basis = get_basis("A2", "y", ADDITIVE)
    datum = x_basis.datum
    for u in datum.elements:
        for v in datum.elements:
            x_rows = x_basis.product_oracle(u, v)
            y_rows = y_basis.product_oracle(u, v)
            assert set(x_rows) == set(y_rows)
            for w, value in x_rows.items():
                sign = (-1) ** (w.length + u.length + v.length)
                assert q_equal(value, q_int(x_basis.backend, sign) * y_rows[w])


# ---------------------------------------------------------------------------
# Cohomological stable basis (additive, T family)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coh_a2():
    return CohStableBasis(get_basis("A2", "t", ADDITIVE))


@pytest.mark.parametrize(
    "stable, law", [(CohStableBasis, ADDITIVE), (KStableBasis, MULTIPLICATIVE)]
)
def test_stable_classes_need_their_family(stable, law):
    """Each stable basis wraps a DualBasis of its own family, T or tau."""
    with pytest.raises(ValueError, match="'x'"):
        stable(get_basis("A2", "x", law))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_stable_envelope_axioms(label):
    """stab-_w satisfies the axioms of a stable envelope (Maulik-Okounkov,
    arXiv:1211.1287, section 3), with N = |positive roots|: its support lies
    in {v >= w}; its diagonal entry is (-1)^{N - l(w)} prod_{beta>0} f(w beta),
    where f(gamma) = x_gamma for gamma < 0 and h - x_gamma otherwise; and every
    off-diagonal entry is a polynomial of degree below N in t, h not counted.
    stab+_w is supported on {v <= w}."""
    coh = CohStableBasis(get_basis(label, "t", ADDITIVE))
    datum, backend = coh.datum, coh.backend
    h = h_var(backend)
    n_pos = len(datum.positive_roots)
    for w in datum.elements:
        assert all(datum.bruhat_leq(v, w) for v in coh.stab_plus(w).support())
        stab = coh.stab_minus_bullet(w)
        diagonal = one(backend) * (-1) ** (n_pos - w.length)
        for beta in datum.positive_roots:
            image = datum.root_action(w, beta)
            x_image = x_class(backend, datum.root_to_weight(image))
            diagonal = diagonal * (x_image if min(image) < 0 else h - x_image)
        assert q_equal(stab.coeff(w), QElem.from_s(diagonal)), w.word
        for v, value in stab.coeffs.items():
            assert datum.bruhat_leq(w, v), (w.word, v.word)
            if v is not w:
                assert not value.den, (w.word, v.word)
                degree = max(sum(exps[:-1]) for exps in value.num.terms)
                assert degree < n_pos, (w.word, v.word)


def test_stab_minus_closed_form(coh_a2):
    for w in coh_a2.datum.elements:
        assert coh_a2.stab_minus_bullet(w) == coh_a2.stab_minus(w)


def test_stab_pairings_are_diagonal():
    for label in ("A2", "B2"):
        coh = CohStableBasis(get_basis(label, "t", ADDITIVE))
        datum = coh.datum
        backend = coh.backend
        sign = (-1) ** datum.longest_element.length
        for v in datum.elements:
            for u in datum.elements:
                with_stab = coh.pairing_with_stab(v, u)
                with_dual = coh.pairing_with_dual(v, u)
                if v == u:
                    assert with_stab == q_int(backend, sign) * DualElem.unit(backend)
                    assert with_dual == DualElem.unit(backend)
                else:
                    assert with_stab.is_zero(), (label, v.word, u.word)
                    assert with_dual.is_zero(), (label, v.word, u.word)


def test_hat_y_closed_form_matches_the_bullet_action(coh_a2):
    """hY . g, read off in closed form, equals the bullet action of the whole
    hY = sum_w delta_w w(c), c = (alpha_{w0} alphahat_{w0})^{-1}."""
    datum, backend = coh_a2.datum, coh_a2.backend
    den = [FactorSymbol(X_ROOT, datum.root_to_weight(beta)) for beta in datum.positive_roots]
    c = QElem(one(backend), den + list(coh_a2.basis.scale_factors()))
    hat_y = QWElem(backend, {w: weyl_act_q(backend, w, c) for w in datum.elements})
    for v in datum.elements:
        for u in datum.elements:
            g = coh_a2.stab_plus(v) * coh_a2.basis.dual_basis_element(u)
            assert coh_a2._hat_y_bullet(g) == bullet(hat_y, g), (v.word, u.word)


def test_stab_raw_expansion_carries_the_longest_sign(coh_a2):
    datum = coh_a2.datum
    backend = coh_a2.backend
    sign = q_int(backend, (-1) ** datum.longest_element.length)
    s1 = by_word(datum, "1")
    s21 = by_word(datum, "21")
    for u, v in ((s1, s1), (s1, s21), (s21, s21)):
        raw = coh_a2.raw_constants(u, v)
        oracle = coh_a2.constants_oracle(u, v)
        assert set(raw) == set(oracle)
        for w, value in raw.items():
            assert q_equal(value, sign * oracle[w])


def test_formula_route_carries_one_extra_hat_factor(coh_a2):
    """The literal closed form exceeds the normalized oracle by exactly one
    factor alphahat_{w0} at every nonzero location; compare_constants reports
    each mismatch instead of absorbing it."""
    datum = coh_a2.datum
    s1 = by_word(datum, "1")
    report = coh_a2.compare_constants([(s1, s1)])
    oracle = coh_a2.constants_oracle(s1, s1)
    nonzero = {w for w, val in oracle.items() if not val.is_zero()}
    assert len(report.entries) == len(nonzero) == 4
    hat = QElem.from_s(coh_a2.scale)
    for entry in report.entries:
        assert q_equal(entry.formula, hat * entry.oracle)


def test_coh_constants_scale_example(coh_a2):
    datum = coh_a2.datum
    backend = coh_a2.backend
    h = h_var(backend)
    al1 = x_class(backend, wt(datum, 1))
    s1 = by_word(datum, "1")
    w0 = datum.longest_element
    assert q_equal(coh_a2.constants_oracle(s1, s1)[w0], QElem.from_s(h * h * (h + al1)))


# ---------------------------------------------------------------------------
# K-theoretic stable basis (multiplicative, tau family)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def k_a2():
    return KStableBasis(get_basis("A2", "tau", MULTIPLICATIVE))


def test_k_stab_two_routes_agree(k_a2):
    for w in k_a2.datum.elements:
        assert k_a2.stab_minus(w) == k_a2.stab_minus_bullet(w)


def test_k_routes_agree_everywhere(k_a2):
    assert k_a2.compare_constants().is_empty


def test_k_raw_expansion_matches_oracle(k_a2):
    datum = k_a2.datum
    s1 = by_word(datum, "1")
    s12 = by_word(datum, "12")
    for u, v in ((s1, s1), (s1, s12)):
        raw = k_a2.raw_constants(u, v)
        oracle = k_a2.constants_oracle(u, v)
        assert set(raw) == set(oracle)
        for w, value in raw.items():
            assert q_equal(value, oracle[w])


@pytest.mark.parametrize(
    "stable, family, law, signed",
    [(CohStableBasis, "t", ADDITIVE, True), (KStableBasis, "tau", MULTIPLICATIVE, False)],
)
def test_raw_routes_read_no_b_matrix(monkeypatch, stable, family, law, signed):
    """raw_constants expands in the operator-route classes, so it reads no
    b-matrix row, the data behind the dual classes and the S oracle.  It
    equals the oracle of a separate basis, times (-1)^{l(w0)} for coh."""

    def fresh():
        backend = Backend(get_datum("A2"), law)
        return stable(DualBasis(Algebra(BUILTIN_FAMILIES[family](backend))))

    oracle_side = fresh()
    datum = oracle_side.datum
    pairs = [(u, v) for u in datum.elements for v in datum.elements if u.index <= v.index]
    expected = [oracle_side.constants_oracle(u, v) for u, v in pairs]

    def no_b_row(self, u):
        raise AssertionError("the raw route read a b-matrix row")

    monkeypatch.setattr(Algebra, "b_row", no_b_row)
    raw_side = fresh()
    sign = q_int(raw_side.backend, (-1) ** datum.longest_element.length if signed else 1)
    for (u, v), oracle in zip(pairs, expected):
        raw = raw_side.raw_constants(u, v)
        assert set(raw) == set(oracle), (u.word, v.word)
        for w, value in raw.items():
            assert q_equal(value, sign * oracle[w]), (u.word, v.word, w.word)


def test_k_stab_support(k_a2):
    datum = k_a2.datum
    for w in datum.elements:
        for v in k_a2.stab_minus(w).support():
            assert datum.bruhat_leq(w, v)


# ---------------------------------------------------------------------------
# Parabolic pieces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("subset", [(1,), (2,)])
def test_parabolic_products_stay_in_minimal_reps(subset):
    basis = get_basis("A2", "x", ADDITIVE)
    datum = basis.datum
    reps = set(datum.min_coset_reps(subset))
    table = basis.parabolic_table(subset)
    assert any(table.values()), "parabolic table should not be empty"
    for (u, v), row in table.items():
        assert u in reps and v in reps
        assert set(row) <= reps


@pytest.mark.parametrize("subset", [(1,), (2,)])
def test_parabolic_longest_rep_absorbs_products(subset):
    basis = get_basis("A2", "x", ADDITIVE)
    datum = basis.datum
    reps = datum.min_coset_reps(subset)
    top = max(reps, key=lambda w: w.length)
    parabolic = basis.parabolic_basis(subset)
    for v in reps:
        rows = parabolic.product_oracle(top, v)
        assert set(rows) <= {top}


# ---------------------------------------------------------------------------
# Discrepancy report plumbing
# ---------------------------------------------------------------------------


def test_discrepancy_report_json_shape():
    basis = get_basis("A2", "x", ADDITIVE)
    backend = basis.backend
    report = DiscrepancyReport()
    assert report.is_empty
    assert report.to_json() == {"discrepancies": [], "count": 0}
    report.add(("1", "2", "121"), q_int(backend, 1), q_int(backend, 0))
    report.add(("lemma",), "nonzero residual", "0")
    payload = report.to_json()
    assert payload["count"] == 2
    assert payload["discrepancies"][0]["location"] == ["1", "2", "121"]
    assert payload["discrepancies"][1]["formula"] == "nonzero residual"

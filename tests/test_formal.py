"""Formal group algebra backends, Weyl action, exact division, localization."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure.formal import (
    ADDITIVE,
    EXPONENT_LIMIT,
    FACTOR_KINDS,
    HAT_ADDITIVE,
    HAT_MULTIPLICATIVE,
    MULTIPLICATIVE,
    ONE_MINUS_E,
    ONE_PLUS_ROOT,
    WITNESS_PRIME,
    X_ROOT,
    Backend,
    ExponentOverflow,
    FactorSymbol,
    QElem,
    SElem,
    _divide_selem,
    _generic_coordinates,
    _normalize,
    _shift_to_nonnegative,
    _witness_rules_out,
    divide_exact,
    e_mono,
    expand_factor,
    formal_sum,
    h_var,
    kappa,
    kappa_pair,
    linear_form,
    monomial,
    one,
    prepare_divisor,
    q_equal,
    v_var,
    weyl_act,
    weyl_act_q,
    witness_point,
    x_class,
    zero,
)

from conftest import get_datum, random_point, random_selem, random_weight

_BACKEND_CACHE: dict[tuple[str, str, str], Backend] = {}


def get_backend(label: str, law: str, lattice: str = "simply-connected") -> Backend:
    key = (label, law, lattice)
    if key not in _BACKEND_CACHE:
        _BACKEND_CACHE[key] = Backend(get_datum(label, lattice), law)
    return _BACKEND_CACHE[key]




# ---------------------------------------------------------------------------
# x classes and the formal group law
# ---------------------------------------------------------------------------


def test_x_class_additive_frozen_coordinates():
    b = get_backend("A2", ADDITIVE)
    # alpha_1 = 2*omega_1 - omega_2 in the simply-connected basis
    assert x_class(b, b.datum.simple_root(1)).terms == {(1, 0, 0): 2, (0, 1, 0): -1}
    assert x_class(b, b.datum.simple_root(2)).terms == {(1, 0, 0): -1, (0, 1, 0): 2}
    b1 = get_backend("A1", ADDITIVE)
    assert x_class(b1, b1.datum.simple_root(1)).terms == {(1, 0): 2}


def test_x_class_multiplicative_frozen():
    b = get_backend("A2", MULTIPLICATIVE)
    alpha1 = b.datum.simple_root(1)
    assert x_class(b, alpha1).terms == {(0, 0, 0): 1, (-2, 1, 0): -1}
    assert x_class(b, (0, 0)).is_zero()


def test_x_zero_additive():
    b = get_backend("A2", ADDITIVE)
    assert x_class(b, (0, 0)).is_zero()


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_formal_group_law_200_random_pairs(law, label):
    b = get_backend(label, law)
    rng = random.Random(20260825)
    for _ in range(200):
        lam = random_weight(rng, b.rank)
        mu = random_weight(rng, b.rank)
        lam_mu = tuple(x + y for x, y in zip(lam, mu))
        assert x_class(b, lam_mu) == formal_sum(b, x_class(b, lam), x_class(b, mu))


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_formal_inverse_on_all_roots(law):
    b = get_backend("B2", law)
    for beta in b.datum.positive_roots:
        wt = b.datum.root_to_weight(beta)
        neg = tuple(-c for c in wt)
        assert formal_sum(b, x_class(b, wt), x_class(b, neg)).is_zero()


def test_multiplicative_negative_class_identity():
    # x_{-lam} = x_lam / (x_lam - 1), i.e. x_{-lam} (x_lam - 1) = x_lam
    b = get_backend("A2", MULTIPLICATIVE)
    lam = (1, 1)
    xp = x_class(b, lam)
    xm = x_class(b, (-1, -1))
    assert xm * (xp - one(b)) == xp


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def test_kappa_values_for_roots():
    ba = get_backend("A2", ADDITIVE)
    bm = get_backend("A2", MULTIPLICATIVE)
    for datum_backend, expected in ((ba, 0), (bm, 1)):
        for beta in datum_backend.datum.positive_roots:
            wt = datum_backend.datum.root_to_weight(beta)
            value = kappa(datum_backend, wt)
            assert value == SElem.constant(datum_backend, expected)
            assert value == kappa(datum_backend, tuple(-c for c in wt))


def test_kappa_nonroot_weight():
    bm = get_backend("A2", MULTIPLICATIVE)
    assert kappa(bm, (3, 1)) == one(bm)
    with pytest.raises(ValueError, match="weight 0"):
        kappa(bm, (0, 0))


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_kappa_pair_vanishes_for_braid_order_3(law):
    b = get_backend("A2", law)
    assert kappa_pair(b, 1, 2).is_zero()
    assert kappa_pair(b, 2, 1).is_zero()


def test_kappa_pair_requires_order_3_bond():
    b = get_backend("B2", ADDITIVE)
    with pytest.raises(ValueError, match="order 3"):
        kappa_pair(b, 1, 2)


# ---------------------------------------------------------------------------
# Weyl action
# ---------------------------------------------------------------------------


def test_weyl_act_on_linear_forms():
    b = get_backend("A2", ADDITIVE)
    s1 = b.datum.simple_reflection(1)
    alpha12 = tuple(
        x + y for x, y in zip(b.datum.simple_root(1), b.datum.simple_root(2))
    )
    assert weyl_act(b, s1, x_class(b, b.datum.simple_root(2))) == x_class(b, alpha12)
    assert weyl_act(b, s1, x_class(b, b.datum.simple_root(1))) == -x_class(
        b, b.datum.simple_root(1)
    )


def test_weyl_act_fixes_extra_variables():
    ba = get_backend("B2", ADDITIVE)
    bm = get_backend("B2", MULTIPLICATIVE)
    w0a = ba.datum.longest_element
    assert weyl_act(ba, w0a, h_var(ba)) == h_var(ba)
    assert weyl_act(bm, w0a, v_var(bm)) == v_var(bm)
    assert weyl_act(bm, w0a, v_var(bm, 2)) == v_var(bm, 2)


def test_weyl_act_multiplicative_permutes_monomials():
    b = get_backend("A2", MULTIPLICATIVE)
    s1 = b.datum.simple_reflection(1)
    lam = (1, 2)
    acted = weyl_act(b, s1, e_mono(b, lam, v_power=3))
    assert acted == e_mono(b, b.datum.apply(s1, lam), v_power=3)


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_weyl_act_is_ring_automorphism(law, label):
    b = get_backend(label, law)
    rng = random.Random(hash((law, label)) & 0xFFFF)
    elems = b.datum.elements
    for trial in range(15):
        w = rng.choice(elems)
        p = random_selem(rng, b)
        q = random_selem(rng, b)
        assert weyl_act(b, w, p + q) == weyl_act(b, w, p) + weyl_act(b, w, q)
        assert weyl_act(b, w, p * q) == weyl_act(b, w, p) * weyl_act(b, w, q)
        u = rng.choice(elems)
        uw = b.datum.multiply(u, w)
        assert weyl_act(b, uw, p) == weyl_act(b, u, weyl_act(b, w, p))
        assert weyl_act(b, b.datum.identity, p) == p


# ---------------------------------------------------------------------------
# Exact division and factor symbols
# ---------------------------------------------------------------------------


def test_divide_exact_spec_examples():
    b = get_backend("A2", ADDITIVE)
    a1 = b.datum.simple_root(1)
    a2 = b.datum.simple_root(2)
    product = x_class(b, a1) * x_class(b, a2)
    assert divide_exact(b, product, FactorSymbol(X_ROOT, a1)) == x_class(b, a2)
    a12 = tuple(x + y for x, y in zip(a1, a2))
    assert divide_exact(b, x_class(b, a12), FactorSymbol(X_ROOT, a1)) is None


def test_divide_exact_multiplicative_geometric():
    b = get_backend("A1", MULTIPLICATIVE)
    alpha = b.datum.simple_root(1)
    double = tuple(2 * c for c in alpha)
    quotient = divide_exact(b, x_class(b, double), FactorSymbol(X_ROOT, alpha))
    assert quotient == one(b) + e_mono(b, tuple(-c for c in alpha))


@pytest.mark.parametrize(
    "law,kinds",
    [
        (ADDITIVE, (X_ROOT, HAT_ADDITIVE, ONE_PLUS_ROOT)),
        (MULTIPLICATIVE, (X_ROOT, ONE_MINUS_E, HAT_MULTIPLICATIVE)),
    ],
)
def test_divide_exact_roundtrip_every_kind(law, kinds):
    b = get_backend("B2", law)
    rng = random.Random(7)
    roots = [b.datum.root_to_weight(beta) for beta in b.datum.positive_roots]
    for kind in kinds:
        for _ in range(10):
            p = random_selem(rng, b)
            factor = FactorSymbol(kind, rng.choice(roots))
            product = p * expand_factor(b, factor)
            assert divide_exact(b, product, factor) == p


def _divide_by_max(p: SElem, d: SElem) -> dict | None:
    """Reference long division on exponent tuples: the leading remainder term
    is found by ``max`` at every step.  Returns the quotient's terms."""
    width = p.backend.rank + 1
    p_terms, d_terms = dict(p.terms), dict(d.terms)
    if not p_terms:
        return {}
    shift_p = shift_d = (0,) * width
    if p.backend.law == MULTIPLICATIVE:  # Laurent: shift to exponents >= 0
        shift_p = tuple(min(k[i] for k in p_terms) for i in range(width))
        shift_d = tuple(min(k[i] for k in d_terms) for i in range(width))
    p_terms = {tuple(a - b for a, b in zip(k, shift_p)): c for k, c in p_terms.items()}
    d_terms = {tuple(a - b for a, b in zip(k, shift_d)): c for k, c in d_terms.items()}
    lead_d = max(d_terms)
    quotient = {}
    while p_terms:
        lead = max(p_terms)
        diff = tuple(a - b for a, b in zip(lead, lead_d))
        if min(diff) < 0 or p_terms[lead] % d_terms[lead_d]:
            return None
        coeff = quotient[diff] = p_terms[lead] // d_terms[lead_d]
        for key, c in d_terms.items():
            tgt = tuple(a + b for a, b in zip(key, diff))
            p_terms[tgt] = p_terms.get(tgt, 0) - coeff * c
            if not p_terms[tgt]:
                del p_terms[tgt]
    offset = [a - b for a, b in zip(shift_p, shift_d)]
    return {tuple(a + b for a, b in zip(k, offset)): c for k, c in quotient.items()}


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("label", ["A1", "A2", "B3"])
def test_heap_division_matches_the_max_reference(label, law):
    b = get_backend(label, law)
    rng = random.Random(f"divide-{label}-{law}")
    divided = failed = 0
    for _ in range(60):
        d = random_selem(rng, b, nterms=rng.randint(1, 4), max_exp=2)
        if d.is_zero():
            continue
        p = random_selem(rng, b, nterms=rng.randint(1, 6), max_exp=3) * d
        if rng.random() < 0.5:
            p = p + random_selem(rng, b, nterms=rng.randint(1, 2), max_exp=3)
        got, want = _divide_selem(p, d), _divide_by_max(p, d)
        if want is None:
            assert got is None
            failed += 1
        else:
            assert list(got.terms.items()) == list(want.items())
            divided += 1
    assert divided and failed


# ---------------------------------------------------------------------------
# Packed exponent keys
# ---------------------------------------------------------------------------

_EXPONENTS = st.integers(-EXPONENT_LIMIT, EXPONENT_LIMIT - 1)


def _vectors(b: Backend):
    return st.tuples(*[_EXPONENTS] * (b.rank + 1))


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packing_round_trips_and_keeps_lexicographic_order(label, data):
    b = get_backend(label, MULTIPLICATIVE)
    vectors = data.draw(st.lists(_vectors(b), min_size=1, max_size=8))
    keys = [b.pack(v) for v in vectors]
    assert [b.unpack(k) for k in keys] == vectors
    assert [b.unpack(k) for k in sorted(keys)] == sorted(vectors)
    distinct = sorted(set(vectors))
    assert SElem(b, {v: 1 for v in vectors}).sorted_terms() == [(v, 1) for v in distinct]


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
def test_packing_accepts_exactly_the_exponent_range(label):
    b = get_backend(label, MULTIPLICATIVE)
    edge = (0,) * b.rank
    for e in (-EXPONENT_LIMIT, EXPONENT_LIMIT - 1):
        assert b.unpack(b.pack(edge + (e,))) == edge + (e,)
    for e in (-EXPONENT_LIMIT - 1, EXPONENT_LIMIT):
        with pytest.raises(ExponentOverflow):
            b.pack(edge + (e,))
        with pytest.raises(ValueError):
            SElem(b, {(e,) + edge: 1})


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_outside_the_range_raise_instead_of_wrapping(law, data):
    b = get_backend("A2", law)
    low = 0 if law == ADDITIVE else -EXPONENT_LIMIT
    vector = st.tuples(*[st.integers(low, EXPONENT_LIMIT - 1)] * 3)
    u, v = data.draw(vector), data.draw(vector)
    total = tuple(x + y for x, y in zip(u, v))
    p = monomial(b, u) + one(b)
    q = monomial(b, v, -3)
    if all(-EXPONENT_LIMIT <= e < EXPONENT_LIMIT for e in total):
        assert p * q == monomial(b, total, -3) + q
    else:
        with pytest.raises(ValueError) as raised:
            p * q
        assert raised.type is ExponentOverflow


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_s_multiplication_commutes_exactly(law, data):
    """a * b and b * a hold the same packed terms: the oracle of a table
    computes each product of two classes for one order only."""
    b = get_backend("A2", law)
    x, y = data.draw(_selems(b)), data.draw(_selems(b))
    assert (x * y)._terms == (y * x)._terms


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_subtract_product_in_place_equals_the_difference(law, data):
    b = get_backend("A2", law)
    r, x, y = (data.draw(_selems(b)) for _ in range(3))
    before = [dict(p._terms) for p in (r, x, y)]
    residue = r.copy()
    residue.subtract_product(x, y)
    assert residue._terms == (r - x * y)._terms
    assert [p._terms for p in (r, x, y)] == before
    residue.subtract_product(x, y * -1)
    assert residue._terms == r._terms


def test_subtract_product_outside_the_range_raises_like_a_product():
    b = get_backend("A2", MULTIPLICATIVE)
    top = monomial(b, (0, 0, EXPONENT_LIMIT - 1))
    residue = zero(b).copy()
    with pytest.raises(ExponentOverflow):
        residue.subtract_product(top, monomial(b, (0, 0, 1)))
    residue = (top * monomial(b, (1, 0, 0))).copy()
    residue.subtract_product(top, monomial(b, (1, 0, 0)))
    assert residue.is_zero()


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_prepared_divisor_divides_like_the_element(law, data):
    b = get_backend("A2", law)
    p, d = data.draw(_selems(b)), data.draw(_selems(b))
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            prepare_divisor(d)
        return
    prepared = prepare_divisor(d)
    assert divide_exact(b, p * d, prepared) == p
    assert divide_exact(b, p, prepared) == _divide_selem(p, d)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weyl_action_outside_the_range_raises_instead_of_wrapping(data):
    b = get_backend("A2", MULTIPLICATIVE)
    datum = b.datum
    weight = data.draw(st.tuples(_EXPONENTS, _EXPONENTS))
    w = data.draw(st.sampled_from(list(datum.elements)))
    moved = datum.apply(w, weight)
    p = e_mono(b, weight, v_power=EXPONENT_LIMIT - 1)
    if all(-EXPONENT_LIMIT <= e < EXPONENT_LIMIT for e in moved):
        assert weyl_act(b, w, p) == e_mono(b, moved, v_power=EXPONENT_LIMIT - 1)
    else:
        with pytest.raises(ExponentOverflow):
            weyl_act(b, w, p)


def test_laurent_division_outside_the_range_raises():
    b = get_backend("A1", MULTIPLICATIVE)
    wide = e_mono(b, (EXPONENT_LIMIT - 1,)) + e_mono(b, (-EXPONENT_LIMIT,))
    with pytest.raises(ExponentOverflow):
        _divide_selem(wide, one(b) - e_mono(b, (1,)))
    with pytest.raises(ExponentOverflow):
        _divide_selem(e_mono(b, (-EXPONENT_LIMIT,)), e_mono(b, (1,)))
    narrow = e_mono(b, (EXPONENT_LIMIT - 1,)) - e_mono(b, (1,))
    assert _divide_selem(narrow, e_mono(b, (1,))) == e_mono(b, (EXPONENT_LIMIT - 2,)) - one(b)


@pytest.mark.parametrize("label", ["A1", "A3", "B3"])
def test_the_shift_to_nonnegative_exponents_is_the_per_exponent_minimum(label):
    """On random Laurent polynomials the packed offset is the vector of each
    exponent's minimum over the terms, read back with ``unpack``, and the
    shifted terms are the terms with that vector subtracted."""
    b = get_backend(label, MULTIPLICATIVE)
    width = b.rank + 1
    rng = random.Random(2718)
    for _ in range(200):
        spread = rng.choice((1, 5, 40, EXPONENT_LIMIT // 2))
        terms = {
            tuple(rng.randint(-spread, spread - 1) for _ in range(width)): rng.randint(1, 9)
            for _ in range(rng.randint(1, 12))
        }
        p = SElem(b, terms)
        shifted, offset = _shift_to_nonnegative(b, p._terms)
        exponents = [b.unpack(key) for key in p._terms]
        minimum = tuple(min(e[i] for e in exponents) for i in range(width))
        assert b.unpack(offset + b.zero_key) == minimum
        assert {b.unpack(key): c for key, c in shifted.items()} == {
            tuple(x - m for x, m in zip(e, minimum)): c for e, c in terms.items()
        }
    for i in range(width):  # an exponent span of EXPONENT_LIMIT in any field
        ends = [tuple(e * (j == i) for j in range(width)) for e in (-1, EXPONENT_LIMIT - 1)]
        with pytest.raises(ExponentOverflow):
            _shift_to_nonnegative(b, SElem(b, dict.fromkeys(ends, 1))._terms)


# ---------------------------------------------------------------------------
# Witness points and the non-divisibility filter of _normalize
# ---------------------------------------------------------------------------

_KINDS = {
    ADDITIVE: (X_ROOT, HAT_ADDITIVE, ONE_PLUS_ROOT),
    MULTIPLICATIVE: (X_ROOT, ONE_MINUS_E, HAT_MULTIPLICATIVE),
}


def _signed_roots(b: Backend) -> list[tuple[int, ...]]:
    roots = [b.datum.root_to_weight(beta) for beta in b.datum.positive_roots]
    return roots + [tuple(-c for c in root) for root in roots]


def _value_mod_prime(p: SElem, point) -> int:
    """Term-by-term evaluation mod the witness prime, without power tables."""
    total = 0
    for key, coeff in p.terms.items():
        for x, e in zip(point, key):
            coeff = coeff * pow(x, e, WITNESS_PRIME) % WITNESS_PRIME
        total += coeff
    return total % WITNESS_PRIME


def _selems(b: Backend):
    low = 0 if b.law == ADDITIVE else -3
    keys = st.tuples(*[st.integers(low, 3)] * (b.rank + 1))
    return st.dictionaries(keys, st.integers(-5, 5), max_size=5).map(
        lambda terms: SElem(b, terms)
    )


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize(
    "label, lattice",
    [("A2", "simply-connected"), ("B2", "simply-connected"), ("G2", "simply-connected"),
     ("B2", "adjoint")],
    ids=["A2", "B2", "G2", "B2-adjoint"],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_witness_filter_kernel_properties(label, lattice, law, data):
    b = get_backend(label, law, lattice)
    factor = FactorSymbol(
        data.draw(st.sampled_from(_KINDS[law])), data.draw(st.sampled_from(_signed_roots(b)))
    )
    f = expand_factor(b, factor)
    point = witness_point(f, _generic_coordinates(b.rank + 1))
    assert _value_mod_prime(f, point) == 0
    p = data.draw(_selems(b))
    assert not _witness_rules_out(b, p * f, factor)
    assert _divide_selem(p * f, f) == p
    if _witness_rules_out(b, p, factor):
        assert _divide_selem(p, f) is None


def test_witness_point_rejects_degenerate_input():
    ba = get_backend("A2", ADDITIVE)
    bm = get_backend("A2", MULTIPLICATIVE)
    generic = _generic_coordinates(3)
    with pytest.raises(ValueError, match="coefficient vanishes mod the witness prime"):
        witness_point(linear_form(ba, (WITNESS_PRIME, -2 * WITNESS_PRIME)), generic)
    with pytest.raises(ValueError, match="affine"):
        witness_point(linear_form(ba, (1, 0)) * linear_form(ba, (0, 1)), generic)
    with pytest.raises(ValueError, match="1 - z\\^m"):
        witness_point(one(bm) + e_mono(bm, (1, -1)), generic)
    with pytest.raises(ValueError, match="1 - z\\^m"):
        witness_point(one(bm) - e_mono(bm, (1, -1)) - e_mono(bm, (0, 1)), generic)
    with pytest.raises(ValueError, match="not a unit"):
        witness_point(one(bm) - e_mono(bm, (1, -1)), (5, WITNESS_PRIME, 7))
    with pytest.raises(ValueError, match="not a unit"):
        witness_point(expand_factor(bm, FactorSymbol(HAT_MULTIPLICATIVE, (2, -1))), (3, 5, 0))
    # A first coordinate that vanishes mod the prime: the next one is solved.
    f = linear_form(ba, (WITNESS_PRIME, 1))
    point = witness_point(f, generic)
    assert point[0] == generic[0] and point[1] != generic[1]
    assert _value_mod_prime(f, point) == 0


def _normalize_unfiltered(b: Backend, num: SElem, den: list) -> tuple[SElem, list]:
    """The normalization loop without the witness filter: after each exact
    division, try every remaining factor again in sorted order."""
    if num.is_zero():
        return num, []
    if not den:
        return num, den
    den = sorted(den)
    changed = True
    while changed and den:
        changed = False
        for idx, factor in enumerate(den):
            quotient = divide_exact(b, num, factor)
            if quotient is not None:
                num = quotient
                del den[idx]
                changed = True
                break
    return num, den


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_normalize_matches_unfiltered_reference(label, law):
    b = get_backend(label, law)
    factors = [FactorSymbol(kind, root) for kind in _KINDS[law] for root in _signed_roots(b)]
    rng = random.Random(f"{label}-{law}")

    def random_fraction():
        den = [rng.choice(factors) for _ in range(rng.randint(0, 3))]
        num = random_selem(rng, b, nterms=3, max_exp=2)
        for factor in rng.sample(factors, rng.randint(0, 2)):
            num = num * expand_factor(b, factor)
        return num, den

    def den_product(den):
        out = one(b)
        for factor in den:
            out = out * expand_factor(b, factor)
        return out

    cases = []
    for _ in range(25):
        (n1, d1), (n2, d2) = random_fraction(), random_fraction()
        cases.append((n1 * n2, d1 + d2))
        cases.append((n1 * den_product(d2) + n2 * den_product(d1), d1 + d2))
        # A numerator that is a multiple of some of its own factors.
        cases.append((n1 * den_product(d1[:1] + d2), d1 + d2))
    if label == "B2" and law == ADDITIVE:
        # x_root(2,-2) = 2 (t1 - t2) has content 2: t1 - t2 vanishes at its
        # witness point, yet the exact division over Z fails.
        content = FactorSymbol(X_ROOT, (2, -2))
        half = linear_form(b, (1, -1))
        assert not _witness_rules_out(b, half, content)
        cases.append((half, [content]))
        cases.append((half * expand_factor(b, content), [content, content]))
    for num, den in cases:
        got_num, got_den = _normalize(b, num, list(den))
        want_num, want_den = _normalize_unfiltered(b, num, list(den))
        assert list(got_num.terms.items()) == list(want_num.terms.items())
        assert got_den == want_den


def test_factor_kind_backend_mismatch():
    """Each law-bound kind is refused on the other law, with one message."""
    backends = {law: get_backend("A2", law) for law in (ADDITIVE, MULTIPLICATIVE)}
    alpha = backends[ADDITIVE].datum.simple_root(1)
    for kind, law, other in [
        (HAT_ADDITIVE, ADDITIVE, MULTIPLICATIVE),
        (ONE_PLUS_ROOT, ADDITIVE, MULTIPLICATIVE),
        (ONE_MINUS_E, MULTIPLICATIVE, ADDITIVE),
        (HAT_MULTIPLICATIVE, MULTIPLICATIVE, ADDITIVE),
    ]:
        message = f"^{kind} factors require the {law} backend$"
        with pytest.raises(ValueError, match=message):
            expand_factor(backends[other], FactorSymbol(kind, alpha))
        with pytest.raises(ValueError, match=message):
            QElem(one(backends[other]), [FactorSymbol(kind, alpha)])
        expand_factor(backends[law], FactorSymbol(kind, alpha))
    with pytest.raises(ValueError, match="root"):
        expand_factor(backends[ADDITIVE], FactorSymbol(X_ROOT, (1, 0)))  # omega_1 is not a root


def test_factor_symbols_hash_compare_and_sort_as_kind_root_pairs():
    roots = [(1, -1), (-1, 0), (0, 2), (2, -1)]
    factors = [FactorSymbol(kind, root) for kind in reversed(FACTOR_KINDS) for root in roots]
    pairs = [(f.kind, f.root) for f in factors]
    assert pairs == [(kind, root) for kind in reversed(FACTOR_KINDS) for root in roots]
    assert sorted(factors) == sorted(pairs)
    for f, pair in zip(factors, pairs):
        assert hash(f) == hash(pair)
        assert f == FactorSymbol(*pair) and f == pair
        assert f != FactorSymbol(pair[0], tuple(-c for c in pair[1]))
    for f, g in zip(factors, factors[1:]):
        assert (f < g) == ((f.kind, f.root) < (g.kind, g.root))
    assert len(set(factors) | set(FactorSymbol(*pair) for pair in pairs)) == len(pairs)


def test_factor_symbols_reject_unknown_kinds_and_survive_pickle_and_copy():
    with pytest.raises(ValueError, match="unknown factor kind 'x_rot'"):
        FactorSymbol("x_rot", (1, 0))
    factor = FactorSymbol(HAT_MULTIPLICATIVE, (2, -1))
    for clone in (
        *(pickle.loads(pickle.dumps(factor, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy(factor),
        copy.deepcopy(factor),
    ):
        assert type(clone) is FactorSymbol
        assert (clone.kind, clone.root) == (HAT_MULTIPLICATIVE, (2, -1))
    with pytest.raises(AttributeError):
        factor.kind = X_ROOT


# ---------------------------------------------------------------------------
# Localization Q
# ---------------------------------------------------------------------------


def test_kappa_via_q_arithmetic():
    for law, expected in ((ADDITIVE, 0), (MULTIPLICATIVE, 1)):
        b = get_backend("A2", law)
        alpha = b.datum.simple_root(1)
        p = QElem(one(b), [FactorSymbol(X_ROOT, alpha)])
        m = QElem(one(b), [FactorSymbol(X_ROOT, tuple(-c for c in alpha))])
        total = p + m
        assert total.as_selem() == SElem.constant(b, expected)


def test_q_normalization_examples():
    b = get_backend("A2", ADDITIVE)
    alpha = b.datum.simple_root(1)
    x = x_class(b, alpha)
    ratio = QElem(x, [FactorSymbol(X_ROOT, alpha)])
    assert ratio.den == ()
    assert ratio.num == one(b)
    p = QElem(random_selem(random.Random(3), b), [FactorSymbol(X_ROOT, alpha)])
    assert (p - p).is_zero()
    assert (p - p).den == ()


def test_negative_root_factor_canonicalization():
    for law in (ADDITIVE, MULTIPLICATIVE):
        b = get_backend("A2", law)
        alpha = b.datum.simple_root(1)
        neg = tuple(-c for c in alpha)
        inv_neg = QElem(one(b), [FactorSymbol(X_ROOT, neg)])
        assert inv_neg.den == (FactorSymbol(X_ROOT, alpha),)
        # 1/x_{-a} * x_{-a} = 1 regardless of the stored representative
        assert (inv_neg * x_class(b, neg)).as_selem() == one(b)
    bm = get_backend("A2", MULTIPLICATIVE)
    alpha = bm.datum.simple_root(1)
    folded = QElem(one(bm), [FactorSymbol(ONE_MINUS_E, alpha)])
    assert folded.den == (FactorSymbol(X_ROOT, alpha),)
    assert (folded * (one(bm) - e_mono(bm, alpha))).as_selem() == one(bm)


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
def test_q_arithmetic_field_axioms_random(law):
    b = get_backend("B2", law)
    rng = random.Random(11 if law == ADDITIVE else 13)
    roots = [b.datum.root_to_weight(beta) for beta in b.datum.positive_roots]

    def random_q():
        den = [FactorSymbol(X_ROOT, rng.choice(roots)) for _ in range(rng.randint(0, 2))]
        return QElem(random_selem(rng, b, nterms=3), den)

    for _ in range(10):
        p, q, r = random_q(), random_q(), random_q()
        assert q_equal(p + q, q + p)
        assert q_equal(p * q, q * p)
        assert q_equal((p + q) + r, p + (q + r))
        assert q_equal(p * (q + r), p * q + p * r)
        point = random_point(rng, b)
        try:
            lhs = _evaluate(p * q + r, point)
            rhs = _evaluate(p, point) * _evaluate(q, point) + _evaluate(r, point)
            assert lhs == rhs
        except ZeroDivisionError:
            pass


def _evaluate_s(p: SElem, point) -> Fraction:
    """p evaluated exactly at rational values of (t_1..t_n, h), respectively
    at nonzero rational values (z_1..z_n, v) with ``E(m) = prod z_i^m_i``."""
    assert len(point) == p.backend.rank + 1
    total = Fraction(0)
    for exponents, coeff in p.terms.items():
        val = Fraction(coeff)
        for base, exp in zip(point, exponents):
            val *= Fraction(base) ** exp
        total += val
    return total


def _evaluate(p: QElem, point) -> Fraction:
    """p evaluated exactly; ZeroDivisionError when a denominator factor vanishes."""
    den = Fraction(1)
    for factor in p.den:
        den *= _evaluate_s(expand_factor(p.backend, factor), point)
    return _evaluate_s(p.num, point) / den


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_q_equal_is_consistent_with_cross_multiplication(seed):
    b = get_backend("A2", ADDITIVE)
    rng = random.Random(seed)
    alpha = b.datum.simple_root(1)
    factor = FactorSymbol(X_ROOT, alpha)
    s = random_selem(rng, b, nterms=2)
    p = QElem(s * x_class(b, alpha), [factor])
    q = QElem.from_s(s)
    assert q_equal(p, q)
    assert p == q
    if not s.is_zero():
        assert not q_equal(p + QElem.from_int(b, 1), q)


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_equal_agrees_with_cross_multiplication_on_normalized_pairs(law, data):
    b = get_backend("B2", law)
    factors = [FactorSymbol(kind, root) for kind in _KINDS[law] for root in _signed_roots(b)]
    dens = st.lists(st.sampled_from(factors), max_size=3)
    n1, d1 = data.draw(_selems(b)), data.draw(dens)
    # Half the pairs share the denominator (the fast path), and half of
    # those also share the numerator, so both verdicts occur on each path.
    same_den = data.draw(st.booleans())
    n2 = n1 if same_den and data.draw(st.booleans()) else data.draw(_selems(b))
    p, q = QElem(n1, d1), QElem(n2, d1 if same_den else data.draw(dens))
    assert q_equal(p, q) == (p.num * q.den_product() == q.num * p.den_product())


def test_weyl_act_q_is_additive_and_multiplicative():
    for law in (ADDITIVE, MULTIPLICATIVE):
        b = get_backend("A2", law)
        rng = random.Random(5)
        roots = [b.datum.root_to_weight(beta) for beta in b.datum.positive_roots]
        for w in b.datum.elements:
            p = QElem(random_selem(rng, b, 2), [FactorSymbol(X_ROOT, roots[0])])
            q = QElem(random_selem(rng, b, 2), [FactorSymbol(X_ROOT, roots[1])])
            assert q_equal(weyl_act_q(b, w, p + q), weyl_act_q(b, w, p) + weyl_act_q(b, w, q))
            assert q_equal(weyl_act_q(b, w, p * q), weyl_act_q(b, w, p) * weyl_act_q(b, w, q))


def test_as_selem_rejects_residual_denominator():
    b = get_backend("A2", ADDITIVE)
    alpha = b.datum.simple_root(1)
    q = QElem(one(b), [FactorSymbol(X_ROOT, alpha)])
    with pytest.raises(ValueError, match="denominator"):
        q.as_selem()


def test_selem_validation():
    b = get_backend("A2", ADDITIVE)
    with pytest.raises(ValueError, match="negative"):
        SElem(b, {(-1, 0, 0): 1})
    with pytest.raises(ValueError, match="length"):
        SElem(b, {(1, 0): 1})
    bm = get_backend("A2", MULTIPLICATIVE)
    assert SElem(bm, {(-1, 0, 0): 1}).terms == {(-1, 0, 0): 1}
    with pytest.raises(ValueError, match="mixed"):
        zero(b) + zero(bm)

"""Round-trips and determinism of the text/JSON conventions."""

import json
import random

import pytest

from conftest import get_datum, random_selem
from demazure.formal import (
    ADDITIVE,
    MULTIPLICATIVE,
    Backend,
    FactorSymbol,
    QElem,
    q_equal,
    x_class,
)
from demazure.serialize import (
    discrepancy_to_json,
    dumps_canonical,
    factor_to_json,
    parse_factor,
    parse_qelem,
    parse_selem,
    parse_word,
    qelem_to_json,
    qelem_to_str,
    selem_to_str,
    word_to_str,
)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def test_word_round_trip_compact_form():
    for word in ((), (1,), (1, 2, 1), (3, 1, 2, 3)):
        assert parse_word(word_to_str(word)) == word


def test_word_empty_spellings():
    assert parse_word("") == ()
    assert parse_word("e") == ()
    assert parse_word('""') == ()
    assert word_to_str(()) == ""


def test_word_comma_form_for_large_ranks():
    word = (1, 10, 2)
    text = word_to_str(word)
    assert "," in text
    assert parse_word(text) == word
    assert parse_word("1,2,1") == (1, 2, 1)


def test_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("1x2")


# ---------------------------------------------------------------------------
# ring elements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_selem_text_round_trip_randomized(label, law):
    backend = Backend(get_datum(label), law)
    rng = random.Random(f"serialize-{label}-{law}")
    for _ in range(25):
        p = random_selem(rng, backend)
        assert parse_selem(backend, selem_to_str(p)) == p


def test_selem_zero_renders_as_zero():
    from demazure.formal import SElem

    backend = Backend(get_datum("A2"), ADDITIVE)
    assert selem_to_str(SElem.constant(backend, 0)) == "0"
    assert parse_selem(backend, "0") == SElem.constant(backend, 0)


def test_qelem_json_round_trip_with_denominators():
    datum = get_datum("A2")
    backend = Backend(datum, ADDITIVE)
    alpha1 = datum.simple_root(1)
    value = QElem(
        x_class(backend, alpha1),
        [FactorSymbol("x_root", alpha1), FactorSymbol("one_plus_root", alpha1)],
    )
    blob = qelem_to_json(value)
    assert set(blob) == {"num", "den"}
    back = parse_qelem(backend, blob)
    assert q_equal(back, value)
    assert qelem_to_json(back) == blob


def test_qelem_str_shows_denominator_factors():
    datum = get_datum("A2")
    backend = Backend(datum, ADDITIVE)
    alpha1 = datum.simple_root(1)
    alpha2 = datum.simple_root(2)
    value = QElem(x_class(backend, alpha2), [FactorSymbol("x_root", alpha1)])
    text = qelem_to_str(value)
    assert text.startswith("(") and "x_root" in text
    plain = QElem.from_s(x_class(backend, alpha1))
    assert "/" not in qelem_to_str(plain)


def test_factor_round_trip():
    factor = FactorSymbol("one_plus_root", (2, -1))
    assert parse_factor(factor_to_json(factor)) == factor


# ---------------------------------------------------------------------------
# reports, canonical dumps
# ---------------------------------------------------------------------------


def test_discrepancy_json_shape():
    blob = discrepancy_to_json(
        [{"location": ("a", "b"), "formula": "1", "oracle": "2"}]
    )
    assert blob["count"] == 1
    assert blob["discrepancies"][0]["location"] == ("a", "b")


def test_dumps_canonical_is_deterministic_and_newline_terminated():
    payload = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    first = dumps_canonical(payload)
    second = dumps_canonical(json.loads(first))
    assert first == second
    assert first.endswith("\n")
    assert first.index('"a"') < first.index('"b"')

"""Canonical text and JSON forms for every value the package exchanges.

Formats (all deterministic, round-tripping byte-identically):

* words: digit strings, ``"121"`` for s1 s2 s1, ``""`` for the identity;
  comma-separated (``"1,2,1"``) accepted everywhere and required once an
  index reaches 10;
* S elements: ``c * t1^a1 ... tn^an h^k`` terms (additive) or
  ``c * E(m1,...,mn) v^k`` terms (multiplicative), joined by `` + `` with the
  sign carried by the coefficient, terms in sorted exponent order;
* Q elements: ``{"num": <selem str>, "den": [{"kind": ..., "root": [...]}]}``;
* discrepancy lists of ``{location, formula, oracle}``.

The structure-constant table is the record list of ``demazure mult``
(:mod:`demazure.cli`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .formal import (
    ADDITIVE,
    Backend,
    FactorSymbol,
    QElem,
    SElem,
)
from .rootdata import Word


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


def word_to_str(word: Sequence[int]) -> str:
    word = tuple(word)
    if any(i >= 10 for i in word):
        return ",".join(str(i) for i in word)
    return "".join(str(i) for i in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text or text in ("e", '""'):
        return ()
    if "," in text:
        parts = [p.strip() for p in text.split(",") if p.strip()]
    else:
        parts = list(text)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}") from exc
    if any(i < 1 for i in word):
        raise ValueError(f"word indices must be >= 1, got {text!r}")
    return word


# ---------------------------------------------------------------------------
# S elements
# ---------------------------------------------------------------------------


def selem_to_str(p: SElem) -> str:
    if p.is_zero():
        return "0"
    backend = p.backend
    rank = backend.datum.rank
    additive = backend.law == ADDITIVE
    chunks = []
    for exps, coeff in p.sorted_terms():
        parts = []
        if additive:
            for i in range(rank):
                if exps[i] == 1:
                    parts.append(f"t{i + 1}")
                elif exps[i]:
                    parts.append(f"t{i + 1}^{exps[i]}")
            if exps[rank] == 1:
                parts.append("h")
            elif exps[rank]:
                parts.append(f"h^{exps[rank]}")
        else:
            if any(exps[:rank]):
                parts.append("E(" + ",".join(str(m) for m in exps[:rank]) + ")")
            if exps[rank] == 1:
                parts.append("v")
            elif exps[rank]:
                parts.append(f"v^{exps[rank]}")
        if parts:
            chunks.append(f"{coeff} * " + " ".join(parts))
        else:
            chunks.append(str(coeff))
    return " + ".join(chunks)


def parse_selem(backend: Backend, text: str) -> SElem:
    text = text.strip()
    rank = backend.datum.rank
    additive = backend.law == ADDITIVE
    terms: dict[tuple[int, ...], int] = {}
    if text == "0":
        return SElem(backend, {})
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if " * " in chunk:
            coeff_text, rest = chunk.split(" * ", 1)
            factors = rest.split()
        else:
            coeff_text, factors = chunk, []
        coeff = int(coeff_text)
        exps = [0] * (rank + 1)
        for token in factors:
            if additive:
                if token == "h":
                    exps[rank] += 1
                elif token.startswith("h^"):
                    exps[rank] += int(token[2:])
                elif token.startswith("t"):
                    name, _, power = token.partition("^")
                    exps[int(name[1:]) - 1] += int(power) if power else 1
                else:
                    raise ValueError(f"bad additive factor {token!r}")
            else:
                if token == "v":
                    exps[rank] += 1
                elif token.startswith("v^"):
                    exps[rank] += int(token[2:])
                elif token.startswith("E(") and token.endswith(")"):
                    values = [int(x) for x in token[2:-1].split(",")]
                    if len(values) != rank:
                        raise ValueError(f"E vector length {len(values)} != rank {rank}")
                    for i, m in enumerate(values):
                        exps[i] += m
                else:
                    raise ValueError(f"bad multiplicative factor {token!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return SElem(backend, terms)


# ---------------------------------------------------------------------------
# Factor symbols and Q elements
# ---------------------------------------------------------------------------


def factor_to_json(factor: FactorSymbol) -> dict:
    return {"kind": factor.kind, "root": list(factor.root)}


def parse_factor(obj: Mapping) -> FactorSymbol:
    return FactorSymbol(obj["kind"], tuple(int(c) for c in obj["root"]))


def factor_to_str(factor: FactorSymbol) -> str:
    return f"{factor.kind}({','.join(str(c) for c in factor.root)})"


def qelem_to_json(p: QElem) -> dict:
    return {
        "num": selem_to_str(p.num),
        "den": [factor_to_json(f) for f in p.den],
    }


def parse_qelem(backend: Backend, obj: Mapping) -> QElem:
    num = parse_selem(backend, obj["num"])
    den = [parse_factor(f) for f in obj.get("den", ())]
    return QElem(num, den)


def qelem_to_str(p: QElem) -> str:
    num = selem_to_str(p.num)
    if not p.den:
        return num
    den = " * ".join(factor_to_str(f) for f in p.den)
    return f"({num}) / ({den})"


# ---------------------------------------------------------------------------
# Discrepancy reports
# ---------------------------------------------------------------------------


def discrepancy_to_json(entries: Iterable[Mapping]) -> dict:
    """The report of ``Discrepancy.as_json_entry()`` dicts, emitted as given."""
    entries = list(entries)
    return {"discrepancies": entries, "count": len(entries)}


def dumps_canonical(obj) -> str:
    """The one JSON writer: stable key order, stable layout, trailing newline.
    Only writing JSON loads ``json``."""
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

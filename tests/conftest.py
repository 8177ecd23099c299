"""Shared fixtures: cached root data and helper utilities."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from demazure.formal import ADDITIVE, Backend, QElem, SElem
from demazure.rootdata import RootDatum, WeylElement, build_root_datum
from demazure.twisted import OperatorFamily, custom_family

_DATUM_CACHE: dict[tuple[str, str], RootDatum] = {}


def get_datum(label: str, lattice: str = "simply-connected") -> RootDatum:
    key = (label, lattice)
    if key not in _DATUM_CACHE:
        _DATUM_CACHE[key] = build_root_datum(label, lattice=lattice)
    return _DATUM_CACHE[key]


@pytest.fixture(scope="session")
def a1() -> RootDatum:
    return get_datum("A1")


@pytest.fixture(scope="session")
def a2() -> RootDatum:
    return get_datum("A2")


@pytest.fixture(scope="session")
def a3() -> RootDatum:
    return get_datum("A3")


@pytest.fixture(scope="session")
def b2() -> RootDatum:
    return get_datum("B2")


@pytest.fixture(scope="session")
def g2() -> RootDatum:
    return get_datum("G2")


def unit_family(backend: Backend) -> OperatorFamily:
    """The custom family a = b = b^-1 = 1, i.e. Z_i = 1 + delta_i.

    Z_i^2 = 2 Z_i gives W-fixed constants (2, 0) for every i, but the braid
    relations fail, so the family has no c-rule: the moves of its transfer
    walks come from the generic elimination.
    """

    def unit(alpha):
        return QElem.from_int(backend, 1)

    return custom_family(backend, "unit", unit, unit, unit)


def random_weight(rng: random.Random, rank: int, span: int = 4) -> tuple[int, ...]:
    return tuple(rng.randint(-span, span) for _ in range(rank))


def random_selem(
    rng: random.Random, backend: Backend, nterms: int = 4, max_exp: int = 3
) -> SElem:
    width = backend.rank + 1
    terms = {}
    for _ in range(nterms):
        if backend.law == ADDITIVE:
            key = tuple(rng.randint(0, max_exp) for _ in range(width))
        else:
            key = tuple(rng.randint(-max_exp, max_exp) for _ in range(width))
        terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
    return SElem(backend, terms)


def random_point(rng: random.Random, backend: Backend) -> tuple[Fraction, ...]:
    out = []
    for _ in range(backend.rank + 1):
        while True:
            val = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            if val not in (0, 1, -1):
                break
        out.append(val)
    return tuple(out)


def bruhat_leq_by_subwords(datum: RootDatum, u: WeylElement, w: WeylElement) -> bool:
    """Brute-force Bruhat oracle: some subword of w's canonical reduced word
    is a reduced word for u."""
    word = w.word
    if u.length > w.length:
        return False
    for positions in itertools.combinations(range(len(word)), u.length):
        sub = tuple(word[p] for p in positions)
        if datum.element_by_word(sub) is u:
            return True
    return u.length == 0

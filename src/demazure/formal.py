"""Formal group algebras, their Weyl action, and localization at root classes.

Two exact backends over arbitrary-precision integers:

* ``additive``: S = Z[t_1..t_n][h], where ``t_i`` are the coordinates of the
  chosen weight lattice basis and ``h`` is an extra central variable.  The
  first Chern class of a weight ``lam`` is the linear form ``x_lam = lam``.
* ``multiplicative``: S = Z[Lambda][v, v^{-1}], spanned by group-like Laurent
  monomials ``E(m) = e^{sum m_i b_i}`` together with an extra Laurent
  variable ``v`` (with ``q := v^2``).  Here ``x_lam = 1 - e^{-lam}``.

Elements of the localization Q keep their denominators as *symbolic* factor
multisets (root classes and the hatted variants used by the h- and
q-deformed operator families), each a :class:`FactorSymbol`, the named
pair ``(kind, root)``; normalization divides the numerator exactly by
factor expansions and never computes polynomial GCDs.  Each kind's law and
expansion are stated once, in one table.  Before any exact division
normalization rules factors out by a modular witness test: a witness point
is a zero, modulo a fixed prime, of the factor's expansion, solved from its
shape (an affine form additively, 1 - z^m multiplicatively), so a numerator
that does not vanish there cannot be a multiple of it.  Results stay exact;
the test only skips divisions that would fail.

Inside an :class:`SElem` each exponent vector is one Python int: coordinate
``i`` of ``rank + 1`` sits in a fixed 16-bit field biased by ``2**15``, the
first coordinate in the most significant field, so packed keys sort exactly
as the exponent tuples do and a monomial product is ``ka + kb - zero_key``.
Every exponent must lie in ``[-2**14, 2**14)`` (the top two bits of each
field differ); a product, Weyl action or constructor that leaves this range
raises :class:`ExponentOverflow` instead of wrapping into the next field.
``SElem.terms`` is a read-only tuple-keyed view of the packed terms.

Exact division is long division by the lexicographically leading term.  The
remainder keeps a heap of its negated keys (entries of cancelled keys are
skipped when popped), and one mask over the top bit of every field tells
whether the divisor's leading monomial divides the remainder's.  Laurent
operands are first shifted to non-negative exponents.  A divisor used again
and again is prepared once (:func:`prepare_divisor`): each factor keeps one
cache entry, its expansion, prepared divisor and witness residues.
"""

from __future__ import annotations

import heapq
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import reduce
from math import prod
from operator import mul, or_
from types import MappingProxyType

from .rootdata import RootDatum, WeylElement

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
LAWS = (ADDITIVE, MULTIPLICATIVE)

Exponents = tuple[int, ...]
Weight = tuple[int, ...]

# Packed exponent keys: one 16-bit field per coordinate, biased by 2**15.
FIELD_BITS = 16
_FIELD_MASK = (1 << FIELD_BITS) - 1
_BIAS = 1 << (FIELD_BITS - 1)
EXPONENT_LIMIT = 1 << (FIELD_BITS - 2)
_RANGE = f"[-{EXPONENT_LIMIT}, {EXPONENT_LIMIT})"


class ExponentOverflow(ValueError):
    """An exponent left ``[-EXPONENT_LIMIT, EXPONENT_LIMIT)``."""


class Backend:
    """A formal group law backend bound to a root datum.

    The exponent vectors of :class:`SElem` have length ``rank + 1``; the last
    slot is the extra variable (``h`` for additive, ``v`` for multiplicative).
    The backend packs them into ints and unpacks them again.
    """

    def __init__(self, datum: RootDatum, law: str) -> None:
        if law not in LAWS:
            raise ValueError(f"law must be one of {LAWS}, got {law!r}")
        self.datum = datum
        self.law = law
        self.rank = datum.rank
        self.extra_var = "h" if law == ADDITIVE else "v"
        width = self.rank + 1
        self._shifts = tuple(FIELD_BITS * (width - 1 - i) for i in range(width))
        self.zero_key = sum(_BIAS << s for s in self._shifts)
        # Bit 15 (resp. 14) of every field: an exponent e is in range exactly
        # when bits 15 and 14 of its field e + 2**15 differ, and e >= 0
        # exactly when bit 15 is set.
        self._sign_bits = sum(1 << (s + FIELD_BITS - 1) for s in self._shifts)
        self._range_bits = self._sign_bits >> 1
        # Each factor's expansion, prepared divisor and witness residues.
        self._factors: dict[FactorSymbol, tuple[SElem, Divisor, _Residues]] = {}
        # The additive action's powers [1, w(t_i), w(t_i)^2, ...] by (w.index, i).
        self._act_powers: dict[tuple[int, int], list[SElem]] = {}
        weights = set()
        for beta in datum.positive_roots:
            wt = datum.root_to_weight(beta)
            weights.add(wt)
            weights.add(tuple(-c for c in wt))
        self._root_weights = frozenset(weights)
        self._positive_root_weights = frozenset(
            datum.root_to_weight(beta) for beta in datum.positive_roots
        )

    def is_root(self, weight: Sequence[int]) -> bool:
        return tuple(weight) in self._root_weights

    def is_negative_root(self, weight: Sequence[int]) -> bool:
        return tuple(-c for c in weight) in self._positive_root_weights

    def compatible(self, other: "Backend") -> bool:
        return self.law == other.law and self.datum is other.datum

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) != len(self._shifts):
            raise ValueError(f"exponent vector must have length {len(self._shifts)}")
        key = 0
        for e, s in zip(exponents, self._shifts):
            if not -EXPONENT_LIMIT <= e < EXPONENT_LIMIT:
                raise ExponentOverflow(f"exponent {e} outside {_RANGE}")
            key |= (e + _BIAS) << s
        return key

    def unpack(self, key: int) -> Exponents:
        return tuple(((key >> s) & _FIELD_MASK) - _BIAS for s in self._shifts)

    def _check_keys(self, keys: Iterable[int]) -> None:
        """Raise :class:`ExponentOverflow` unless every key is in range."""
        bits = self._range_bits
        for key in keys:
            if (key ^ key >> 1) & bits != bits:
                raise ExponentOverflow(f"exponent outside {_RANGE}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Backend({self.datum.label or 'custom'}, {self.law})"


class SElem:
    """An exact element of the formal group algebra S.

    ``SElem(backend, {exponent tuple: coeff})`` builds one from tuple keys;
    internally (``_raw=True``) the terms are a fresh dict of packed keys with
    nonzero coefficients, which the element then owns.
    """

    __slots__ = ("backend", "_terms")

    def __init__(self, backend: Backend, terms: Mapping, _raw: bool = False):
        self.backend = backend
        if _raw:
            self._terms: dict[int, int] = terms
            return
        clean: dict[int, int] = {}
        for key, coeff in terms.items():
            if not coeff:
                continue
            packed = backend.pack(tuple(key))
            if backend.law == ADDITIVE and any(e < 0 for e in key):
                raise ValueError("additive backend does not allow negative exponents")
            clean[packed] = clean.get(packed, 0) + coeff
        self._terms = {k: c for k, c in clean.items() if c}

    @property
    def terms(self) -> Mapping[Exponents, int]:
        """Read-only view of the terms keyed by exponent tuples."""
        unpack = self.backend.unpack
        return MappingProxyType({unpack(k): c for k, c in self._terms.items()})

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """The terms in increasing lexicographic order of their exponents."""
        unpack = self.backend.unpack
        return [(unpack(k), c) for k, c in sorted(self._terms.items())]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(backend: Backend, value: int) -> "SElem":
        if not value:
            return SElem(backend, {}, _raw=True)
        return SElem(backend, {backend.zero_key: int(value)}, _raw=True)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "SElem") -> None:
        if self.backend is not other.backend and not self.backend.compatible(other.backend):
            raise ValueError("mixed backends in S arithmetic")

    def __add__(self, other: "SElem") -> "SElem":
        self._check(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            val = out.get(key, 0) + coeff
            if val:
                out[key] = val
            elif key in out:
                del out[key]
        return SElem(self.backend, out, _raw=True)

    def __sub__(self, other: "SElem") -> "SElem":
        return self + (-other)

    def __neg__(self) -> "SElem":
        return SElem(self.backend, {k: -c for k, c in self._terms.items()}, _raw=True)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return SElem(self.backend, {}, _raw=True)
            return SElem(
                self.backend, {k: c * other for k, c in self._terms.items()}, _raw=True
            )
        if not isinstance(other, SElem):
            return NotImplemented
        self._check(other)
        backend = self.backend
        zero_key = backend.zero_key
        out: dict[int, int] = {}
        get = out.get
        theirs = other._terms.items()
        for ka, ca in self._terms.items():
            base = ka - zero_key
            for kb, cb in theirs:
                key = base + kb
                val = get(key, 0) + ca * cb
                if val:
                    out[key] = val
                elif key in out:
                    del out[key]
        backend._check_keys(out)
        return SElem(backend, out, _raw=True)

    __rmul__ = __mul__

    def copy(self) -> "SElem":
        """A new element with terms of its own: the only kind of element that
        :meth:`subtract_product` may change.  Every other SElem is treated as
        immutable (it may be cached, shared or hashed)."""
        return SElem(self.backend, dict(self._terms), _raw=True)

    def subtract_product(self, a: "SElem", b: "SElem") -> None:
        """``self -= a * b`` in place, in one pass over the terms of a and b,
        with no product, negation or new element built.  ``self`` must be held
        by no one else, such as a fresh :meth:`copy` or zero.  Each new key is
        checked as a product's would be, so every exponent stays in range."""
        self._check(a)
        self._check(b)
        zero_key, bits = self.backend.zero_key, self.backend._range_bits
        terms = self._terms
        get = terms.get
        theirs = b._terms.items()
        for ka, ca in a._terms.items():
            base = ka - zero_key
            for kb, cb in theirs:
                key = base + kb
                val = get(key)
                if val is None:
                    if (key ^ key >> 1) & bits != bits:
                        raise ExponentOverflow(f"exponent outside {_RANGE}")
                    terms[key] = -ca * cb
                elif val != ca * cb:
                    terms[key] = val - ca * cb
                else:
                    del terms[key]

    def __pow__(self, n: int) -> "SElem":
        if n < 0:
            raise ValueError("negative powers are not defined in S")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return SElem.constant(self.backend, 1) if result is None else result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SElem)
            and self.backend.compatible(other.backend)
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.backend.law, tuple(sorted(self._terms.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .serialize import selem_to_str

        return f"S<{selem_to_str(self)}>"


# ---------------------------------------------------------------------------
# Backend element constructors
# ---------------------------------------------------------------------------


def zero(backend: Backend) -> SElem:
    return SElem.constant(backend, 0)


def one(backend: Backend) -> SElem:
    return SElem.constant(backend, 1)


def monomial(backend: Backend, exponents: Sequence[int], coeff: int = 1) -> SElem:
    return SElem(backend, {tuple(exponents): coeff})


def e_mono(backend: Backend, weight: Sequence[int], v_power: int = 0) -> SElem:
    """The group-like Laurent monomial E(weight) * v^power (multiplicative)."""
    if backend.law != MULTIPLICATIVE:
        raise ValueError("group-like monomials exist only in the multiplicative backend")
    return SElem(backend, {tuple(weight) + (v_power,): 1})


def h_var(backend: Backend) -> SElem:
    if backend.law != ADDITIVE:
        raise ValueError("h lives in the additive backend")
    return monomial(backend, (0,) * backend.rank + (1,))

def v_var(backend: Backend, power: int = 1) -> SElem:
    if backend.law != MULTIPLICATIVE:
        raise ValueError("v lives in the multiplicative backend")
    return monomial(backend, (0,) * backend.rank + (power,))


def linear_form(backend: Backend, weight: Sequence[int]) -> SElem:
    if backend.law != ADDITIVE:
        raise ValueError("linear forms live in the additive backend")
    terms: dict[int, int] = {}
    for i, c in enumerate(weight):
        if c:
            terms[backend.pack(tuple(int(i == j) for j in range(backend.rank)) + (0,))] = c
    return SElem(backend, terms, _raw=True)


def x_class(backend: Backend, weight: Sequence[int]) -> SElem:
    """The first characteristic class ``x_lam`` of a weight."""
    weight = tuple(weight)
    if len(weight) != backend.rank:
        raise ValueError(f"weight must have {backend.rank} coordinates")
    if backend.law == ADDITIVE:
        return linear_form(backend, weight)
    neg = tuple(-c for c in weight)
    return one(backend) - e_mono(backend, neg)


def formal_sum(backend: Backend, a: SElem, b: SElem) -> SElem:
    """The formal group law F(a, b): a+b additively, a+b-ab multiplicatively."""
    if backend.law == ADDITIVE:
        return a + b
    return a + b - a * b


# ---------------------------------------------------------------------------
# Weyl action
# ---------------------------------------------------------------------------


def _act_additive(backend: Backend, w: WeylElement, p: SElem) -> SElem:
    powers = backend._act_powers

    def power(i: int, e: int) -> SElem:
        key = (w.index, i)
        table = powers.get(key)
        if table is None:
            # w(t_i) is column i of the lattice matrix, as a linear form.
            column = tuple(row[i] for row in backend.datum.lattice_matrix(w))
            table = powers[key] = [one(backend), linear_form(backend, column)]
        while len(table) <= e:
            table.append(table[-1] * table[1])
        return table[e]

    out = zero(backend)
    h_unit = (0,) * backend.rank
    for key, coeff in p._terms.items():
        exps = backend.unpack(key)
        term = SElem(backend, {backend.pack(h_unit + exps[-1:]): coeff}, _raw=True)
        for i in range(backend.rank):
            if exps[i]:
                term = term * power(i, exps[i])
        out = out + term
    return out


def weyl_act(backend: Backend, w: WeylElement, p: SElem) -> SElem:
    """Apply a Weyl group element to an S element (ring automorphism)."""
    if w.length == 0:
        return p
    if backend.law == MULTIPLICATIVE:
        datum, pack, unpack = backend.datum, backend.pack, backend.unpack
        out: dict[int, int] = {}
        for key, coeff in p._terms.items():
            exps = unpack(key)
            out[pack(datum.apply(w, exps[:-1]) + exps[-1:])] = coeff
        return SElem(backend, out, _raw=True)
    return _act_additive(backend, w, p)


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


Divisor = namedtuple("Divisor", "lead coeff items shift")
Divisor.__doc__ = """A divisor ready for long division (see :func:`prepare_divisor`).

``lead`` is its leading key after the shift and ``coeff`` that key's
coefficient; ``items`` lists every term as ``(key - zero_key, coeff)``; and
``shift`` is the packed offset subtracted from the keys (0 additively).
"""


def prepare_divisor(d: SElem) -> Divisor:
    """``d`` prepared for :func:`_divide_selem`, for a divisor used many times."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero in S")
    backend = d.backend
    if backend.law == MULTIPLICATIVE:
        terms, shift = _shift_to_nonnegative(backend, d._terms)
    else:
        terms, shift = d._terms, 0
    lead = max(terms)
    zero_key = backend.zero_key
    return Divisor(lead, terms[lead], [(key - zero_key, c) for key, c in terms.items()], shift)


def _divide_selem(p: SElem, d: SElem | Divisor) -> SElem | None:
    """Exact division in S by ``d`` or its prepared form; ``None`` when d
    does not divide p."""
    backend = p.backend
    lead_d, cd, d_items, shift_d = d if isinstance(d, Divisor) else prepare_divisor(d)
    if p.is_zero():
        return p
    zero_key = backend.zero_key
    if backend.law == MULTIPLICATIVE:
        # Shift p by a monomial unit too, so all exponents are >= 0.
        p_terms, shift_p = _shift_to_nonnegative(backend, p._terms)
    else:
        p_terms = dict(p._terms)
    # Exponents are now in [0, 2**14).  If d divides p, every remainder term
    # lies in the Newton polytope of p, so every quotient exponent is in
    # [0, 2**14) too: one mask checks both bounds, and a remainder key (a
    # divisor plus a quotient exponent) never carries into the next field.
    quotient_bits = backend._sign_bits | backend._range_bits
    sign_bits = backend._sign_bits
    quotient: dict[int, int] = {}
    remainder = p_terms
    heap = [-key for key in remainder]
    heapq.heapify(heap)
    while remainder:
        lead_r = -heapq.heappop(heap)
        cr = remainder.get(lead_r)
        if cr is None:
            continue  # cancelled since it was pushed
        diff = lead_r - lead_d + zero_key
        if diff & quotient_bits != sign_bits or cr % cd:
            return None
        coeff = cr // cd
        quotient[diff] = coeff
        for key, c in d_items:
            tgt = key + diff
            val = remainder.get(tgt)
            if val is None:
                remainder[tgt] = -coeff * c
                heapq.heappush(heap, -tgt)
            elif val != coeff * c:
                remainder[tgt] = val - coeff * c
            else:
                del remainder[tgt]
    if backend.law == ADDITIVE:
        return SElem(backend, quotient, _raw=True)
    offset = shift_p - shift_d
    shifted = {key + offset: c for key, c in quotient.items()}
    backend._check_keys(shifted)
    return SElem(backend, shifted, _raw=True)


def _shift_to_nonnegative(backend: Backend, terms: dict[int, int]) -> tuple[dict[int, int], int]:
    """``terms`` times the monomial unit that makes every minimum exponent 0,
    and the packed offset subtracted from each key.

    The first field orders the packed keys, so its minimum is the smallest
    key's; each other field's minimum is read from one list of its values.
    """
    shifts = backend._shifts
    top = shifts[0]
    offset = ((min(terms) >> top) - _BIAS) << top
    for s in shifts[1:]:
        offset += (min([(key >> s) & _FIELD_MASK for key in terms]) - _BIAS) << s
    shifted = {key - offset: c for key, c in terms.items()}
    # Exponents are now >= 0; bit 14 of a field is set when one is >= 2**14.
    if reduce(or_, shifted) & backend._range_bits:
        raise ExponentOverflow(f"exponent span of a divisor operand is {EXPONENT_LIMIT} or more")
    return shifted, offset


# ---------------------------------------------------------------------------
# Denominator factors
# ---------------------------------------------------------------------------

X_ROOT = "x_root"
HAT_ADDITIVE = "hat_additive"
ONE_MINUS_E = "one_minus_e"
HAT_MULTIPLICATIVE = "hat_multiplicative"
ONE_PLUS_ROOT = "one_plus_root"

# The one statement of each factor kind: the law it lives on (None for both)
# and its expansion over a root beta.
_FACTOR_TABLE = {
    X_ROOT: (None, x_class),
    HAT_ADDITIVE: (ADDITIVE, lambda b, beta: h_var(b) - linear_form(b, beta)),
    ONE_MINUS_E: (MULTIPLICATIVE, lambda b, beta: one(b) - e_mono(b, beta)),
    HAT_MULTIPLICATIVE: (
        MULTIPLICATIVE,
        lambda b, beta: one(b) - e_mono(b, tuple(-c for c in beta), v_power=2),
    ),
    ONE_PLUS_ROOT: (ADDITIVE, lambda b, beta: one(b) + linear_form(b, beta)),
}

FACTOR_KINDS = tuple(_FACTOR_TABLE)


def check_factor_kind(law: str, kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` is a factor kind that lives on
    the backend law ``law``."""
    if kind not in _FACTOR_TABLE:
        raise ValueError(f"unknown factor kind {kind!r}")
    kind_law = _FACTOR_TABLE[kind][0]
    if kind_law not in (None, law):
        raise ValueError(f"{kind} factors require the {kind_law} backend")


class FactorSymbol(namedtuple("FactorSymbol", "kind root")):
    """A symbolic denominator factor over a root ``beta``: ``kind`` is one of
    ``FACTOR_KINDS`` and ``root`` is beta in lattice coordinates.  Each
    kind's law and expansion are stated once, in ``_FACTOR_TABLE``.

    Hashing, equality, ordering and pickling are the tuple's own (factors
    sort by kind, then root); the constructor only adds the kind check.
    """

    __slots__ = ()

    def __new__(cls, kind: str, root: Weight) -> FactorSymbol:
        if kind not in _FACTOR_TABLE:
            raise ValueError(f"unknown factor kind {kind!r}")
        return tuple.__new__(cls, (kind, root))


def _new_factor(backend: Backend, factor: FactorSymbol) -> tuple[SElem, Divisor, _Residues]:
    """The factor's one cache entry: its expansion, the expansion prepared by
    :func:`prepare_divisor`, and its residues at a witness point."""
    beta = factor.root
    if len(beta) != backend.rank:
        raise ValueError("factor root has wrong coordinate length")
    if not backend.is_root(beta):
        raise ValueError(f"factor root {beta} is not a root of the datum")
    check_factor_kind(backend.law, factor.kind)
    value = _FACTOR_TABLE[factor.kind][1](backend, beta)
    point = witness_point(value, _generic_coordinates(backend.rank + 1))
    entry = backend._factors[factor] = (value, prepare_divisor(value), _Residues(backend, point))
    return entry


def expand_factor(backend: Backend, factor: FactorSymbol) -> SElem:
    return (backend._factors.get(factor) or _new_factor(backend, factor))[0]


def divide_exact(
    backend: Backend, p: SElem, factor: FactorSymbol | SElem | Divisor
) -> SElem | None:
    """Exact division of p by a factor symbol, a raw S element, or a divisor
    prepared by :func:`prepare_divisor`."""
    if isinstance(factor, FactorSymbol):
        factor = (backend._factors.get(factor) or _new_factor(backend, factor))[1]
    return _divide_selem(p, factor)


# ---------------------------------------------------------------------------
# Witness points: a cheap proof that a factor does not divide
# ---------------------------------------------------------------------------

# A Mersenne prime.  If p = f * q exactly, then p(pt) = f(pt) q(pt) = 0 mod
# the prime at any point pt where f vanishes, so p(pt) != 0 proves f does not
# divide p.  A zero value proves nothing and the exact division still runs.
WITNESS_PRIME = 2**61 - 1


def _generic_coordinates(width: int) -> tuple[int, ...]:
    """Fixed nonzero residues, one per coordinate, from the splitmix64 mixer.

    They must obey no small algebraic relation (a linear sequence would put
    every witness point on x_beta for beta = 2 alpha_1 - alpha_2, say)."""
    mask = (1 << 64) - 1
    out = []
    for i in range(1, width + 1):
        z = (0x9E3779B97F4A7C15 * i) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) % (WITNESS_PRIME - 1) + 1)
    return tuple(out)


def witness_point(f: SElem, generic: Sequence[int]) -> tuple[int, ...]:
    """Coordinates mod ``WITNESS_PRIME`` at which the expansion ``f`` vanishes,
    solved by its shape.

    ``generic`` holds one residue per coordinate (t_1..t_n, h additively; the
    bases c_1..c_n, c_v multiplicatively).

    * Additive: ``f`` is an affine form a_0 + sum a_i t_i (h is the last
      t_i).  With j the first coordinate whose a_j is a unit mod the prime,
      every other coordinate is generic and t_j solves f = 0.
    * Multiplicative: ``f`` is 1 - z^m.  With j the first coordinate where
      m_j != 0, z_i = c_i^{m_j} for i != j and z_j = prod_{i != j} c_i^{-m_i},
      so z^m = 1.

    Raises ``ValueError`` when an additive ``f`` is not affine or every
    coordinate's coefficient vanishes mod the prime, a multiplicative ``f``
    is not 1 - z^m, or a base is not a unit mod the prime.
    """
    prime = WITNESS_PRIME
    width = f.backend.rank + 1
    point = [c % prime for c in generic[:width]]
    if f.backend.law == ADDITIVE:
        constant, linear = 0, [0] * width
        for exps, coeff in f.terms.items():
            degree = sum(exps)
            if degree > 1:
                raise ValueError("an additive witness point needs an affine expansion")
            if degree:
                linear[exps.index(1)] = coeff
            else:
                constant = coeff
        j = next((i for i, a in enumerate(linear) if a % prime), None)
        if j is None:
            raise ValueError("every coordinate's coefficient vanishes mod the witness prime")
        rest = constant + sum(a * t for i, (a, t) in enumerate(zip(linear, point)) if i != j)
        point[j] = -rest * pow(linear[j], -1, prime) % prime
        return tuple(point)
    if not all(point):
        raise ValueError("multiplicative witness coordinate is not a unit mod the prime")
    one_key = (0,) * width
    terms = f.terms
    m = next((exps for exps in terms if exps != one_key), one_key)
    if len(terms) != 2 or terms.get(one_key) != 1 or terms[m] != -1:
        raise ValueError("a multiplicative witness point needs an expansion 1 - z^m")
    j = next(i for i, e in enumerate(m) if e)
    z = [pow(c, m[j], prime) for c in point]
    z[j] = prod(pow(c, -e, prime) for i, (c, e) in enumerate(zip(point, m)) if i != j) % prime
    return tuple(z)


# Entries per residue table; a full table starts over, so memory stays bounded.
_RESIDUE_TABLE_SIZE = 1 << 12


class _Residues(dict):
    """Monomial values mod the witness prime at one witness point, keyed by
    packed exponents and filled on demand.  A missing value is a product of
    powers read from one table per coordinate, keyed by the biased field (so
    at most 2**16 entries each)."""

    __slots__ = ("columns",)

    def __init__(self, backend: Backend, point: Sequence[int]):
        super().__init__()
        self.columns = tuple((base, shift, {}) for base, shift in zip(point, backend._shifts))

    def __missing__(self, key: int) -> int:
        if len(self) >= _RESIDUE_TABLE_SIZE:
            self.clear()
        value = 1
        for base, shift, powers in self.columns:
            field = (key >> shift) & _FIELD_MASK
            power = powers.get(field)
            if power is None:
                power = powers[field] = pow(base, field - _BIAS, WITNESS_PRIME)
            value = value * power % WITNESS_PRIME
        self[key] = value
        return value


def _witness_rules_out(backend: Backend, p: SElem, factor: FactorSymbol) -> bool:
    """True when ``p`` is nonzero at the factor's witness point, which proves
    the factor does not divide ``p``."""
    residues = (backend._factors.get(factor) or _new_factor(backend, factor))[2]
    terms = p._terms
    return sum(map(mul, terms.values(), map(residues.__getitem__, terms))) % WITNESS_PRIME != 0


def _canonicalize_factor(
    backend: Backend, factor: FactorSymbol
) -> tuple[FactorSymbol, SElem | None]:
    """Rewrite a factor over a negative root as a positive-root factor times a
    unit; returns (canonical factor, numerator multiplier for 1/factor).

    Only ``x_root`` and ``one_minus_e`` admit unit rewrites:
    additive  1/x_{-beta} = -1 / x_beta;
    multiplicative  1/x_{-beta} = -E(-beta)/x_beta and 1 - e^beta = x_{-beta}.
    """
    kind, beta = factor.kind, factor.root
    if kind == ONE_MINUS_E:
        check_factor_kind(backend.law, kind)
        # 1 - e^beta = x_{-beta}: fold into the x_root kind first.
        return _canonicalize_factor(
            backend, FactorSymbol(X_ROOT, tuple(-c for c in beta))
        )
    if kind == X_ROOT and backend.is_negative_root(beta):
        pos = tuple(-c for c in beta)
        if backend.law == ADDITIVE:
            unit = SElem.constant(backend, -1)
        else:
            unit = e_mono(backend, beta) * -1  # -E(beta) = -e^{beta}, beta negative
        return FactorSymbol(X_ROOT, pos), unit
    return factor, None


# ---------------------------------------------------------------------------
# The localization Q
# ---------------------------------------------------------------------------


class QElem:
    """num / prod(den) with a symbolic denominator multiset, kept normalized."""

    __slots__ = ("backend", "num", "den")

    def __init__(
        self,
        num: SElem,
        den: Iterable[FactorSymbol] = (),
        _raw: bool = False,
    ):
        backend = num.backend
        if _raw:
            self.backend = backend
            self.num = num
            self.den = tuple(den)
            return
        factors: list[FactorSymbol] = []
        for factor in den:
            canonical, unit = _canonicalize_factor(backend, factor)
            expand_factor(backend, canonical)  # validates kind/backend
            if unit is not None:
                num = num * unit
            factors.append(canonical)
        num, factors = _normalize(backend, num, factors)
        self.backend = backend
        self.num = num
        self.den = tuple(factors)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def from_s(num: SElem) -> "QElem":
        return QElem(num, (), _raw=True)

    @staticmethod
    def from_int(backend: Backend, value: int) -> "QElem":
        return QElem(SElem.constant(backend, value), (), _raw=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def den_product(self) -> SElem:
        out = one(self.backend)
        for factor in self.den:
            out = out * expand_factor(self.backend, factor)
        return out

    def as_selem(self) -> SElem:
        """Certify the element lies in S (empty denominator) and return it."""
        if self.den:
            raise ValueError(
                "element does not normalize to S; residual denominator "
                f"{[f'{f.kind}{f.root}' for f in self.den]}"
            )
        return self.num

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "QElem") -> None:
        if not self.backend.compatible(other.backend):
            raise ValueError("mixed backends in Q arithmetic")

    def __add__(self, other: "QElem") -> "QElem":
        self._check(other)
        if not self.den and not other.den:
            return QElem(self.num + other.num, (), _raw=True)
        backend = self.backend
        # Canonical factors are equal exactly when their expansions are, so
        # the common denominator is the multiset union of the two.
        mine, theirs = Counter(self.den), Counter(other.den)
        num_a = self.num
        num_b = other.num
        den: list[FactorSymbol] = []
        for factor, count in (mine | theirs).items():
            expansion = expand_factor(backend, factor)
            for _ in range(count - mine[factor]):
                num_a = num_a * expansion
            for _ in range(count - theirs[factor]):
                num_b = num_b * expansion
            den.extend([factor] * count)
        num, den = _normalize(backend, num_a + num_b, den)
        return QElem(num, den, _raw=True)

    def __sub__(self, other: "QElem") -> "QElem":
        return self + (-other)

    def __neg__(self) -> "QElem":
        return QElem(-self.num, self.den, _raw=True)

    def __mul__(self, other):
        if isinstance(other, int):
            num, den = _normalize(self.backend, self.num * other, list(self.den))
            return QElem(num, den, _raw=True)
        if isinstance(other, SElem):
            other = QElem.from_s(other)
        if not isinstance(other, QElem):
            return NotImplemented
        self._check(other)
        num, den = _normalize(
            self.backend, self.num * other.num, list(self.den) + list(other.den)
        )
        return QElem(num, den, _raw=True)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, QElem) and q_equal(self, other)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        raise TypeError("QElem is not hashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .serialize import qelem_to_str

        return f"Q<{qelem_to_str(self)}>"


def _normalize(
    backend: Backend, num: SElem, den: list[FactorSymbol]
) -> tuple[SElem, list[FactorSymbol]]:
    if num.is_zero():
        return num, []
    if not den:
        return num, den
    # One pass in sorted order: a factor that does not divide num does not
    # divide num / g either, so each is tried once (a copy of a kept factor
    # is kept without a test).
    kept: list[FactorSymbol] = []
    for factor in sorted(den):
        if factor not in kept and not _witness_rules_out(backend, num, factor):
            quotient = _divide_selem(num, backend._factors[factor][1])
            if quotient is not None:
                num = quotient
                continue
        kept.append(factor)
    return num, kept


def q_equal(p: QElem, q: QElem) -> bool:
    """Equality in Q by cross-multiplication of numerators with denominators.

    Equal denominators compare the numerators alone: S is a domain.
    """
    if not p.backend.compatible(q.backend):
        raise ValueError("mixed backends in q_equal")
    if p.den == q.den:
        return p.num == q.num
    return (p.num * q.den_product()) == (q.num * p.den_product())


def weyl_act_q(backend: Backend, w: WeylElement, p: QElem) -> QElem:
    """Weyl action on Q: act on the numerator and on each factor's root.

    The action is a ring automorphism and the canonical rewrites only move
    units around, so a normalized input stays normalized; no re-division is
    attempted here.
    """
    if w.length == 0:
        return p
    num = weyl_act(backend, w, p.num)
    if not p.den:
        return QElem(num, (), _raw=True)
    den: list[FactorSymbol] = []
    for factor in p.den:
        moved = FactorSymbol(factor.kind, backend.datum.apply(w, factor.root))
        canonical, unit = _canonicalize_factor(backend, moved)
        if unit is not None:
            num = num * unit
        den.append(canonical)
    den.sort()
    return QElem(num, tuple(den), _raw=True)


# ---------------------------------------------------------------------------
# kappa classes
# ---------------------------------------------------------------------------


def kappa(backend: Backend, weight: Sequence[int]) -> SElem:
    """kappa_lam = 1/x_lam + 1/x_{-lam}, certified to land in S."""
    weight = tuple(weight)
    if all(c == 0 for c in weight):
        raise ValueError("kappa is undefined at weight 0")
    if not backend.is_root(weight):
        # kappa is defined for any nonzero weight; but denominators must be
        # expressible as factor symbols, which require roots.  Compute via
        # the generic x classes directly when the weight is a root of the
        # datum; otherwise fall back to the same formula with raw divisions.
        xp = x_class(backend, weight)
        xm = x_class(backend, tuple(-c for c in weight))
        num = xp + xm
        prod = xp * xm
        quotient = _divide_selem(num, prod)
        if quotient is None:
            raise ValueError("kappa did not normalize to S")
        return quotient
    pos = QElem(one(backend), [FactorSymbol(X_ROOT, weight)])
    neg = QElem(one(backend), [FactorSymbol(X_ROOT, tuple(-c for c in weight))])
    return (pos + neg).as_selem()


def kappa_pair(backend: Backend, i: int, j: int) -> SElem:
    """kappa_{alpha beta} for simple roots alpha_i, alpha_j with bond order 3:

        1/(x_{a+b} x_b) - 1/(x_{a+b} x_{-a}) - 1/(x_a x_b),

    certified to land in S (it vanishes for both supported backends)."""
    datum = backend.datum
    a_ij = datum.cartan[i - 1][j - 1]
    a_ji = datum.cartan[j - 1][i - 1]
    if a_ij * a_ji != 1:
        raise ValueError("kappa_pair requires a braid bond of order 3")
    alpha = datum.simple_root(i)
    beta = datum.simple_root(j)
    absum = tuple(x + y for x, y in zip(alpha, beta))
    neg_alpha = tuple(-c for c in alpha)
    term1 = QElem(one(backend), [FactorSymbol(X_ROOT, absum), FactorSymbol(X_ROOT, beta)])
    term2 = QElem(one(backend), [FactorSymbol(X_ROOT, absum), FactorSymbol(X_ROOT, neg_alpha)])
    term3 = QElem(one(backend), [FactorSymbol(X_ROOT, alpha), FactorSymbol(X_ROOT, beta)])
    return (term1 - term2 - term3).as_selem()


# ---------------------------------------------------------------------------
# Convenience
# ---------------------------------------------------------------------------


def product_over_positive_roots(backend: Backend, f: Callable[[Weight], SElem]) -> SElem:
    out = one(backend)
    for beta in backend.datum.positive_roots:
        out = out * f(backend.datum.root_to_weight(beta))
    return out

"""The twisted group algebra Q_W and divided-difference operator families.

Q_W is the free Q-module on symbols ``delta_w`` with the twisted product
``(p delta_w)(p' delta_{w'}) = p w(p') delta_{w w'}``.  Its elements
(:class:`QWElem`) and those of the dual Q_W^* (``demazure.dual.DualElem``)
are both :class:`WeylIndexed` maps W -> Q, which never store a zero and
merge sums with :func:`accumulate`; only the products differ.

An operator family assigns to every root ``alpha`` a pair of coefficients
(a_alpha, b_alpha) and the single-reflection operator
``Z_alpha = a_alpha + b_alpha delta_alpha``;
words compose to ``Z_I``, and the elements ``Z_{I_w}`` for a fixed choice of
reduced words {I_w} form a Q-basis.  Because each family also supplies a
symbolic inverse of b_alpha, every triangular basis change here is carried
out by multiplication alone (no division ever happens blindly).

The built-in families x, y, t, tau and sigma are the entries of
:data:`BUILTIN_FAMILIES`, the one table of families and their laws: each
entry writes its a, b and b_inv in the family-file format of
``--family custom:FILE``, and :func:`read_coefficients` reads both.

Each :class:`Algebra` solves the constants (c1, c0) of the quadratic relation
``Z_i^2 = c1 Z_i + c0`` from the family's own relations (:attr:`Algebra.quadratic`)::

    X, Y:      (kappa, 0)    kappa = 0 additively, 1 multiplicatively
    T, sigma:  (0, 1)
    tau:       (q-1, q)

W fixes c1 and c0, so with the braid relations they fix how each
coefficient c of ``Z_J = sum_w c Z_{I_w}`` moves when J gains a letter: right
multiplication by Z_i moves c from w to w s_i when w s_i > w, and otherwise
sends c c1 to w and c c0 to w s_i; left multiplication does the same with
s_i w.  This one rule (:meth:`Algebra._c_moves`) gives the reduced-subword
rule (0, 0), the Demazure-product rule (1, 0), the group-product rule (0, 1)
and the Hecke recursion (q-1, q).

The sums over subwords behind the structure constants and the restrictions
fold into walks along the words (:meth:`Algebra.formula_column`,
:meth:`Algebra.billey_row`): a walk adds one letter i at a time and moves
each state x along Z_i Z_{I_x} (or Z_{I_x} Z_i) expanded in the Z-basis.
That needs only Z_i(f) = a f + b s_i(f), so it holds for every family:
with quadratic constants the moves are the c-rule, and otherwise one
generic triangular elimination (:meth:`Algebra.expand_in_z_basis`) per
side, letter and element.  Every per-word value of an :class:`Algebra` is
such a fold, one letter at a time, and :func:`_walk` keeps each one by
prefix (a column and a Leibniz coefficient by reversed suffix); every
suffix and prefix of a lexmin word is lexmin, so all columns together walk
|W| - 1 letters, and so do all rows.  A column is symmetric in (u, v) and
is kept as its half u.index <= v.index.  A walk that reads the inversion
roots beta_j = w_{j-1}(alpha_{i_j}) carries the element w_{j-1} of its
prefix, so each step reads its root with one lookup.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cached_property

from .formal import (
    ADDITIVE,
    EXPONENT_LIMIT,
    MULTIPLICATIVE,
    Backend,
    FactorSymbol,
    QElem,
    SElem,
    check_factor_kind,
    monomial,
    one,
    q_equal,
    v_var,
    weyl_act,
    weyl_act_q,
    x_class,
)
from .rootdata import WeylElement, Word
from .serialize import qelem_to_str, word_to_str

Weight = tuple[int, ...]


# ---------------------------------------------------------------------------
# W-indexed coefficient maps: Q_W and its dual share one linear structure
# ---------------------------------------------------------------------------


def accumulate(out: dict, key, value) -> None:
    """Add ``value`` into ``out[key]``, dropping the key when the sum is zero."""
    prev = out.get(key)
    if prev is not None:
        value = prev + value
    if value.is_zero():
        out.pop(key, None)
    else:
        out[key] = value


class WeylIndexed:
    """A finite map W -> Q that never stores a zero value.

    Q_W (:class:`QWElem`) and its dual Q_W^* (:class:`~demazure.dual.DualElem`)
    are both free Q-modules on W; this class holds their shared linear
    structure, and each subclass adds only its product.  Values given as
    ints, S elements or Q elements are coerced to Q.

    >>> from demazure.formal import ADDITIVE, Backend
    >>> from demazure.rootdata import build_root_datum
    >>> backend = Backend(build_root_datum("A1"), ADDITIVE)
    >>> g = QWElem(backend, {backend.datum.identity: 2})
    >>> (g - g).coeffs == {}
    True
    """

    __slots__ = ("backend", "coeffs")
    _symbol: str  # the basis symbol that repr prints; each subclass sets it

    def __init__(self, backend: Backend, coeffs: Mapping[WeylElement, QElem], _raw=False):
        self.backend = backend
        if _raw:
            self.coeffs = dict(coeffs)
        else:
            self.coeffs = {}
            for w, c in coeffs.items():
                c = _as_q(backend, c)
                if not c.is_zero():
                    self.coeffs[w] = c

    @classmethod
    def zero(cls, backend: Backend):
        return cls(backend, {}, _raw=True)

    def support(self) -> tuple[WeylElement, ...]:
        return tuple(sorted(self.coeffs, key=WeylElement.sort_key))

    def coeff(self, w: WeylElement) -> QElem:
        return self.coeffs.get(w, QElem.from_int(self.backend, 0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            accumulate(out, w, c)
        return type(self)(self.backend, out, _raw=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.backend, {w: -c for w, c in self.coeffs.items()}, _raw=True)

    def __rmul__(self, scalar):
        """Left multiplication by a scalar p: each coefficient c_w becomes p c_w."""
        scalar = _as_q(self.backend, scalar)
        return type(self)(self.backend, {w: scalar * c for w, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"({qelem_to_str(self.coeffs[w])}) {self._symbol}_{word_to_str(w.word) or 'e'}"
            for w in self.support()
        ]
        return " + ".join(parts) or "0"


def _as_q(backend: Backend, value) -> QElem:
    if isinstance(value, QElem):
        return value
    if isinstance(value, SElem):
        return QElem.from_s(value)
    if isinstance(value, int):
        return QElem.from_int(backend, value)
    raise TypeError(f"cannot coerce {type(value).__name__} to QElem")


class QWElem(WeylIndexed):
    """An element of Q_W: a finite Q-combination of the symbols delta_w."""

    __slots__ = ()
    _symbol = "delta"

    @staticmethod
    def delta(backend: Backend, w: WeylElement, coeff: QElem | SElem | int = 1) -> "QWElem":
        return QWElem(backend, {w: coeff})

    @staticmethod
    def one(backend: Backend) -> "QWElem":
        return QWElem.delta(backend, backend.datum.identity)

    def __mul__(self, other) -> "QWElem":
        """The twisted product; a scalar on the right means (scalar) delta_e."""
        backend = self.backend
        if not isinstance(other, QWElem):
            other = QWElem.delta(backend, backend.datum.identity, other)
        datum = backend.datum
        out: dict[WeylElement, QElem] = {}
        for w1, p1 in self.coeffs.items():
            for w2, p2 in other.coeffs.items():
                accumulate(out, datum.multiply(w1, w2), p1 * weyl_act_q(backend, w1, p2))
        return QWElem(backend, out, _raw=True)

    def act(self, p: QElem | SElem | int) -> QElem:
        """The Q_W action on Q: (p' delta_w) . p = p' w(p)."""
        p = _as_q(self.backend, p)
        total = QElem.from_int(self.backend, 0)
        for w, c in self.coeffs.items():
            total = total + c * weyl_act_q(self.backend, w, p)
        return total


def expand_in_triangular_basis(
    order: Sequence[WeylElement],
    coeffs: Mapping[WeylElement, QElem | SElem],
    column: Callable[[WeylElement], Mapping[WeylElement, QElem | SElem]],
    pivot: Callable[[WeylElement, QElem | SElem], QElem | SElem],
) -> dict[WeylElement, QElem | SElem]:
    """Coefficients c with coeffs = sum_u c_u column(u), by elimination.

    The values are all in Q or all in S.  ``order`` must list u before every
    other element in the support of ``column(u)``.  ``pivot(u, cur)`` returns
    the c_u that clears the residue ``cur`` at u, i.e. cur divided by the u
    entry of ``column(u)``: in Q by multiplying with a closed-form
    reciprocal, in S by one exact division that raises when it fails.  A
    residue that survives means ``coeffs`` lies outside the span.

    In S each residue is updated in place: the solver copies the values of
    ``coeffs`` once, applies r <- r - c_u column(u)[w] to its own copy in one
    pass over the terms of c_u and column(u)[w] (:meth:`SElem.subtract_product`),
    and hands the pivot a copy of the residue at u.  It never changes
    ``coeffs`` or a column value, which may be cached.  In Q each update is
    ``accumulate`` of the product, as the printed form of a Q value depends on
    how its sum was formed (:meth:`Algebra.b_row` groups its terms instead).
    """
    in_s = isinstance(next(iter(coeffs.values()), None), SElem)
    residue = {w: val.copy() if in_s else val for w, val in coeffs.items()}
    out = {}
    for u in order:
        cur = residue.get(u)
        if cur is None or cur.is_zero():
            continue
        c = out[u] = pivot(u, cur.copy() if in_s else cur)
        for w, val in column(u).items():
            if not in_s:
                accumulate(residue, w, -(c * val))
                continue
            target = residue.get(w)
            if target is None:
                target = residue[w] = SElem.constant(c.backend, 0)
            target.subtract_product(c, val)
    bad = [w for w, val in residue.items() if not val.is_zero()]
    if bad:
        raise ValueError(
            "element does not lie in the span of the triangular classes; "
            f"residue survives at {sorted(w.word for w in bad)}"
        )
    return out


# ---------------------------------------------------------------------------
# Operator families
# ---------------------------------------------------------------------------

class OperatorFamily:
    """A W-equivariant operator family Z_alpha = a_alpha + b_alpha delta_alpha.

    ``a``, ``b``, ``b_inv`` take a *root* in lattice coordinates (any sign)
    and return QElems; ``b_inv`` must be the exact reciprocal of ``b``.
    """

    def __init__(
        self,
        name: str,
        backend: Backend,
        a: Callable[[Weight], QElem],
        b: Callable[[Weight], QElem],
        b_inv: Callable[[Weight], QElem],
    ) -> None:
        self.name = name
        self.backend = backend
        self.a = a
        self.b = b
        self.b_inv = b_inv

    def check_equivariance(self) -> list[str]:
        """Exact check of w(a_alpha) = a_{w(alpha)} (and b, b_inv) for every
        simple reflection against every root; returns failure descriptions."""
        backend = self.backend
        datum = backend.datum
        failures = []
        roots = []
        for beta in datum.positive_roots:
            wt = datum.root_to_weight(beta)
            roots.append(wt)
            roots.append(tuple(-c for c in wt))
        for i in range(1, datum.rank + 1):
            s = datum.simple_reflection(i)
            for beta in roots:
                image = datum.apply(s, beta)
                for label, fn in (("a", self.a), ("b", self.b), ("b_inv", self.b_inv)):
                    lhs = weyl_act_q(backend, s, fn(beta))
                    rhs = fn(image)
                    if not q_equal(lhs, rhs):
                        failures.append(
                            f"{label}: s_{i} of {label}({beta}) != {label}({image})"
                        )
        return failures

    def check_b_inverse(self) -> list[str]:
        backend = self.backend
        datum = backend.datum
        failures = []
        for beta in datum.positive_roots:
            wt = datum.root_to_weight(beta)
            for root in (wt, tuple(-c for c in wt)):
                prod = self.b(root) * self.b_inv(root)
                if not q_equal(prod, QElem.from_int(backend, 1)):
                    failures.append(f"b({root}) * b_inv({root}) != 1")
        return failures


def custom_family(
    backend: Backend,
    name: str,
    a: Callable[[Weight], QElem],
    b: Callable[[Weight], QElem],
    b_inv: Callable[[Weight], QElem],
) -> OperatorFamily:
    fam = OperatorFamily(f"custom:{name}", backend, a, b, b_inv)
    problems = fam.check_b_inverse() + fam.check_equivariance()
    if problems:
        raise ValueError("custom family failed validation: " + "; ".join(problems[:5]))
    return fam


def read_coefficients(
    backend: Backend, spec: Mapping, where: str
) -> tuple[Callable[[Weight], QElem], ...]:
    """The a, b and b_inv of a family written in the family-file format
    (documented in :mod:`demazure.cli`).

    The spec is read once, here, and shape errors raise ``ValueError``
    naming ``where``.  Each coefficient builds its value at a root from the
    terms on the first call and returns that same QElem after, so a family
    holds at most 2|Phi+| values per coefficient, filled as the roots are
    used.  The values are shared: no caller may change one in place (e.g. by
    :meth:`SElem.subtract_product` on its numerator).  Nothing here validates
    the family (see :func:`custom_family`).
    """
    return tuple(
        _read_coefficient(backend, spec.get(key), f"{where}, coefficient {key!r}")
        for key in ("a", "b", "b_inv")
    )


def _read_coefficient(backend: Backend, spec, where: str) -> Callable[[Weight], QElem]:
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object with 'num' and 'den' lists")
    try:
        num_terms = [tuple(operator.index(c) for c in term) for term in spec.get("num", [])]
        den_spec = [(str(kind), operator.index(sign)) for kind, sign in spec.get("den", [])]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} is malformed: {exc}") from exc
    if any(len(term) != 4 for term in num_terms):
        raise ValueError(f"{where}: each numerator term needs 4 integers")
    for term in num_terms:
        _, alpha_exp, extra_exp, e_mult = term
        if alpha_exp < 0 or (backend.law == ADDITIVE and extra_exp < 0):
            raise ValueError(
                f"{where}: numerator term {list(term)} has a negative exponent of "
                + ("x_alpha" if alpha_exp < 0 else "h")
            )
        if not all(-EXPONENT_LIMIT <= e < EXPONENT_LIMIT for e in term[1:]):
            raise ValueError(
                f"{where}: numerator term {list(term)} has an exponent outside "
                f"[-{EXPONENT_LIMIT}, {EXPONENT_LIMIT})"
            )
        if e_mult and backend.law != MULTIPLICATIVE:
            raise ValueError(
                f"{where}: group-like numerator terms need the multiplicative backend"
            )
    for kind, _ in den_spec:
        try:
            check_factor_kind(backend.law, kind)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc

    values: dict[Weight, QElem] = {}

    def coefficient(weight: Weight) -> QElem:
        weight = tuple(weight)
        cached = values.get(weight)
        if cached is not None:
            return cached
        total = SElem.constant(backend, 0)
        for coeff, alpha_exp, extra_exp, e_mult in num_terms:
            # h^extra_exp, or v^extra_exp E(e_mult * alpha): one monomial.
            value = monomial(backend, tuple(e_mult * c for c in weight) + (extra_exp,), coeff)
            if alpha_exp:
                value = value * x_class(backend, weight) ** alpha_exp
            total = total + value
        den = [FactorSymbol(kind, tuple(sign * c for c in weight)) for kind, sign in den_spec]
        values[weight] = cached = QElem(total, den)
        return cached

    return coefficient


class FamilyEntry(namedtuple("FamilyEntry", "name laws spec")):
    """A built-in operator family: its name, the backend laws it is defined on
    (the first is its default) and its a, b and b_inv in the family-file
    format of :func:`read_coefficients`.

    ``entry(backend)`` checks the law and builds the family; a built-in
    family is not validated."""

    __slots__ = ()

    def check_law(self, law: str) -> None:
        if law not in self.laws:
            raise ValueError(f"family {self.name!r} requires the {self.laws[0]} backend")

    def __call__(self, backend: Backend) -> OperatorFamily:
        self.check_law(backend.law)
        return OperatorFamily(
            self.name, backend, *read_coefficients(backend, self.spec, f"family {self.name!r}")
        )


# The one table of built-in families and their laws.
BUILTIN_FAMILIES: dict[str, FamilyEntry] = {
    entry.name: entry
    for entry in (
        # X: a = 1/x_a, b = -1/x_a, b^-1 = -x_a
        FamilyEntry("x", (ADDITIVE, MULTIPLICATIVE), {
            "a": {"num": [[1, 0, 0, 0]], "den": [["x_root", 1]]},
            "b": {"num": [[-1, 0, 0, 0]], "den": [["x_root", 1]]},
            "b_inv": {"num": [[-1, 1, 0, 0]], "den": []},
        }),
        # Y: a = 1/x_{-a}, b = 1/x_a, b^-1 = x_a
        FamilyEntry("y", (ADDITIVE, MULTIPLICATIVE), {
            "a": {"num": [[1, 0, 0, 0]], "den": [["x_root", -1]]},
            "b": {"num": [[1, 0, 0, 0]], "den": [["x_root", 1]]},
            "b_inv": {"num": [[1, 1, 0, 0]], "den": []},
        }),
        # T: a = -h/a, b = (h-a)/a, b^-1 = a/(h-a)
        FamilyEntry("t", (ADDITIVE,), {
            "a": {"num": [[-1, 0, 1, 0]], "den": [["x_root", 1]]},
            "b": {"num": [[1, 0, 1, 0], [-1, 1, 0, 0]], "den": [["x_root", 1]]},
            "b_inv": {"num": [[1, 1, 0, 0]], "den": [["hat_additive", 1]]},
        }),
        # tau: a = (q-1)/(1-e^a), b = (1-q e^{-a})/(1-e^a), b^-1 = (1-e^a)/(1-q e^{-a}), q = v^2
        FamilyEntry("tau", (MULTIPLICATIVE,), {
            "a": {"num": [[1, 0, 2, 0], [-1, 0, 0, 0]], "den": [["one_minus_e", 1]]},
            "b": {"num": [[1, 0, 0, 0], [-1, 0, 2, -1]], "den": [["one_minus_e", 1]]},
            "b_inv": {"num": [[1, 0, 0, 0], [-1, 0, 0, 1]], "den": [["hat_multiplicative", 1]]},
        }),
        # sigma: a = -1/a, b = (1+a)/a, b^-1 = a/(1+a)
        FamilyEntry("sigma", (ADDITIVE,), {
            "a": {"num": [[-1, 0, 0, 0]], "den": [["x_root", 1]]},
            "b": {"num": [[1, 0, 0, 0], [1, 1, 0, 0]], "den": [["x_root", 1]]},
            "b_inv": {"num": [[1, 1, 0, 0]], "den": [["one_plus_root", 1]]},
        }),
    )
}


# ---------------------------------------------------------------------------
# The algebra of a family with a fixed reduced-word choice
# ---------------------------------------------------------------------------


def _walk(cache: dict[tuple, object], key: tuple, step: Callable[[object, int], object]):
    """``cache[key]`` for a value that is a fold along ``key``.

    ``step(value, j)`` gives the value of ``key[:j+1]`` from the value of
    ``key[:j]``, and ``cache`` holds the value of ``()``.  On a miss the walk
    grows the value from the longest prefix of ``key`` already in ``cache``
    and keeps the value of every prefix it passes, so keys that share a
    prefix share its steps.
    """
    value = cache.get(key)
    if value is not None:
        return value
    start = len(key) - 1
    while key[:start] not in cache:
        start -= 1
    value = cache[key[:start]]
    for j in range(start, len(key)):
        value = cache[key[: j + 1]] = step(value, j)
    return value


# The Leibniz case of a position relative to a pair of subsets (E, F): the
# number of E and F that leave it out (:func:`_leibniz_case`).
_BOTH, _ONE, _NEITHER = 0, 1, 2


class Algebra:
    """An operator family together with a fixed reduced word I_w per element.

    Five per-word values are walks (:func:`_walk`), each with its own cache:
    composed words, monic rows, Leibniz coefficients, half formula columns
    and Billey rows.  A monic row's value is the 4-tuple of its word's
    element, the row, the diagonal inverse and the leading coefficient
    (:meth:`_monic_row`), and a Billey row's is the pair of its word's
    element and the row (:meth:`billey_row`).  No diagonal entry or b-row
    composes a word.  :meth:`_moves` alone chooses the moves of the column
    and row walks, the c-rule (:meth:`_c_moves`) or the generic elimination
    (:meth:`expand_in_z_basis`), which gives every c-coefficient the algebra
    returns.
    """

    def __init__(self, family: OperatorFamily, words: Mapping[WeylElement, Word] | None = None):
        self.family = family
        self.backend = family.backend
        self.datum = family.backend.datum
        table: dict[WeylElement, Word] = {w: w.word for w in self.datum.elements}
        if words:
            for w, word in words.items():
                word = tuple(word)
                if not self.datum.is_reduced_word(word, w):
                    raise ValueError(
                        f"word {word} is not a reduced word for {''.join(map(str, w.word)) or 'e'}"
                    )
                table[w] = word
        self.words = table
        identity, unit = self.datum.identity, QElem.from_int(self.backend, 1)
        # The walk caches, each seeded with the value of the empty word.
        self._compose_cache: dict[Word, QWElem] = {(): QWElem.one(self.backend)}
        self._monic_rows: dict[Word, tuple[WeylElement, dict, QElem, QElem]] = {
            (): (identity, {identity: unit}, unit, unit)
        }
        self._leibniz_values: dict[tuple[tuple[int, int], ...], QElem] = {(): unit}
        self._columns: dict[Word, dict[tuple[WeylElement, WeylElement], QElem]] = {
            (): {(identity, identity): unit}
        }
        self._billey_rows: dict[Word, tuple[WeylElement, dict[WeylElement, QElem]]] = {
            (): (identity, {identity: unit})
        }
        self._b_rows: dict[WeylElement, dict[WeylElement, QElem]] = {}
        self._expanded_moves: dict[tuple[bool, int, WeylElement], list] = {}

    # -- elements -------------------------------------------------------------

    def word(self, w: WeylElement) -> Word:
        return self.words[w]

    def simple_element(self, i: int) -> QWElem:
        """Z_i = a(alpha_i) + b(alpha_i) delta_{s_i}, built on each call."""
        datum, family, alpha = self.datum, self.family, self.datum.simple_root(i)
        terms = {datum.identity: family.a(alpha), datum.simple_reflection(i): family.b(alpha)}
        return QWElem(self.backend, terms)

    def compose_word(self, word: Sequence[int]) -> QWElem:
        """Z_I = Z_{i_1} ... Z_{i_k}, the product in Q_W of any word I."""
        word = tuple(word)
        return _walk(self._compose_cache, word, lambda z, j: z * self.simple_element(word[j]))

    def z_basis_element(self, w: WeylElement) -> QWElem:
        return self.compose_word(self.words[w])

    # -- triangular data -------------------------------------------------------

    def diag_inverse(self, w: WeylElement) -> QElem:
        """1 / (leading delta_w coefficient of Z_{I_w}), as a product of
        twisted b-inverses along the word (:meth:`_monic_row`)."""
        return self._monic_row(self.words[w])[2]

    def leading_coefficient(self, w: WeylElement) -> QElem:
        """The leading delta_w coefficient of Z_{I_w}, as a product of twisted
        b's along the word (:meth:`_monic_row`)."""
        return self._monic_row(self.words[w])[3]

    def _monic_row(self, word: Word) -> tuple[WeylElement, dict[WeylElement, QElem], QElem, QElem]:
        """The element w of a reduced word J, the monic row
        M_J(v) = a_{J,v} / a_{J,w}, where Z_J = sum_v a_{J,v} delta_v and
        M_J(w) = 1, the diagonal inverse 1 / a_{J,w} and the leading
        coefficient a_{J,w}.

        For J = J'i, with w = w' s_i and beta = w'(alpha_i) the last inversion
        root of J, Z_J = Z_{J'} Z_i and the W-equivariance of a and b give

            M_J(v) = (M_{J'}(v) a(v alpha_i) + M_{J'}(v s_i) b(v s_i alpha_i)) b^-1(beta)

        and a_{J,w} = a_{J',w'} b(beta), 1 / a_{J,w} = (1 / a_{J',w'}) b^-1(beta),
        so each step reads a and b once per element of the row's support, and
        b and b^-1 at the one root beta.
        """
        datum, family = self.datum, self.family
        unit = QElem.from_int(self.backend, 1)

        def step(value, j: int):
            prefix, row, inverse, leading = value
            i = word[j]
            alpha = datum.simple_root(i)
            terms: dict[WeylElement, QElem] = {}
            for v, m in row.items():
                root = datum.apply(v, alpha)
                accumulate(terms, v, m * family.a(root))
                accumulate(terms, datum.multiply_simple(v, i), m * family.b(root))
            lead, beta = datum.multiply_simple(prefix, i), datum.apply(prefix, alpha)
            b_inv = family.b_inv(beta)
            row = {v: unit if v is lead else c * b_inv for v, c in terms.items()}
            return lead, row, inverse * b_inv, leading * family.b(beta)

        return _walk(self._monic_rows, word, step)

    def b_row(self, u: WeylElement) -> dict[WeylElement, QElem]:
        """Row of b-coefficients: delta_u = sum_{v <= u} b_{u, I_v} Z_{I_v}.

        Row w sets b_{w,I_t} = -sum_{v < w} M_{I_w}(v) b_{v,I_t} for t < w
        from the rows below it and the monic row of I_w (:meth:`_monic_row`),
        so no word is composed in Q_W; the full B3 b-matrix builds about three
        times faster than by solving each row with
        :func:`expand_in_triangular_basis`.  The terms of each entry are
        summed in S, one numerator per denominator multiset of
        M_{I_w}(v) b_{v,I_t}, so no numerator is raised to a union
        denominator, and each group is normalized once before the groups
        are added in Q.  A Q value can
        have more than one printed form (the simply-connected B2 lattice
        writes 1/2 as t2/x_(0,2) and as (t1 - t2)/x_(2,-2)); every entry
        prints as when each term was normalized and added on its own, which
        the tests pin by digest."""
        cached = self._b_rows.get(u)
        if cached is not None:
            return cached
        for w in self.datum.elements[: u.index + 1]:
            if w in self._b_rows:
                continue
            # -sum_v M(v) b_{v,t} for each target t, as one S numerator per
            # denominator multiset of M(v) b_{v,t}.
            groups: dict[WeylElement, dict[tuple[FactorSymbol, ...], SElem]] = {}
            for v, scale in self._monic_row(self.words[w])[1].items():
                if v is w:
                    continue
                for t, bvt in self._b_rows[v].items():
                    by_den = groups.setdefault(t, {})
                    den = tuple(sorted(scale.den + bvt.den))
                    num = by_den.get(den)
                    if num is None:
                        num = by_den[den] = SElem.constant(self.backend, 0)
                    num.subtract_product(scale.num, bvt.num)
            row: dict[WeylElement, QElem] = {w: self.diag_inverse(w)}
            for t, by_den in groups.items():
                for den, num in by_den.items():
                    accumulate(row, t, QElem(num, den))
            self._b_rows[w] = row
        return self._b_rows[u]

    def expand_in_z_basis(self, word: Sequence[int]) -> dict[WeylElement, QElem]:
        """The nonzero c_{J, I_w} in Z_J = sum_w c_{J, I_w} Z_{I_w} for the
        word J, by the generic triangular elimination."""
        return expand_in_triangular_basis(
            self.datum.elements[::-1],  # longest first: sort_key order, reversed
            self.compose_word(tuple(word)).coeffs,
            lambda w: self.z_basis_element(w).coeffs,
            lambda w, cur: cur * self.diag_inverse(w),
        )

    # -- c coefficients ---------------------------------------------------------

    @cached_property
    def quadratic(self) -> tuple[SElem, SElem] | None:
        """The constants (c1, c0) in S of ``Z_i^2 = c1 Z_i + c0``, solved on first
        use: the pair of i = 1 when every entry of :meth:`verify_relations`
        passes, which the c-rule of :meth:`_c_moves` needs, else None."""
        first, entries = self._relations()
        return first if all(passed for _, _, passed in entries) else None

    @cached_property
    def _descent_weights(self) -> tuple[SElem | int | None, ...]:
        """The c-rule weights (c1, c0) of a descent: None when zero, 1 when one."""
        unit = one(self.backend)
        return tuple(None if c.is_zero() else 1 if c == unit else c for c in self.quadratic)

    def _c_moves(
        self, w: WeylElement, neighbour: WeylElement
    ) -> list[tuple[WeylElement, SElem | int]]:
        """Z_{I_w} times Z_i as (target, weight) pairs, by Z_i^2 = c1 Z_i + c0.

        ``neighbour`` is w s_i for a right factor Z_i and s_i w for a left
        one.  An ascent moves to the neighbour with weight 1 (the int); a
        descent stays at w with weight c1 and moves with weight c0, each only
        when nonzero.
        """
        if neighbour.length > w.length:
            return [(neighbour, 1)]
        c1, c0 = self._descent_weights
        moves = []
        if c1 is not None:
            moves.append((w, c1))
        if c0 is not None:
            moves.append((neighbour, c0))
        return moves

    def _moves(self, left: bool) -> Callable[[int, WeylElement], Sequence[tuple]]:
        """The moves of Z_{I_x} times Z_i as a function of (i, x): (target,
        weight) pairs that sum to Z_i Z_{I_x} when ``left``, else to
        Z_{I_x} Z_i.

        A family with quadratic constants takes the c-rule of
        :meth:`_c_moves`.  Any other family expands the word (i,) + I_x (or
        I_x + (i,)) by :meth:`expand_in_z_basis`, once per (side, i, x); the
        walks need no braid relation for that, only Z_i(f) = a f + b s_i(f)
        with Q commutative.
        """
        datum, expanded = self.datum, self._expanded_moves
        if self.quadratic is not None:
            if left:
                return lambda i, x: self._c_moves(x, datum.left_multiply_simple(i, x))
            return lambda i, x: self._c_moves(x, datum.multiply_simple(x, i))

        def moves(i: int, x: WeylElement) -> list[tuple[WeylElement, QElem]]:
            key = (left, i, x)
            if key not in expanded:
                word = (i,) + self.words[x] if left else self.words[x] + (i,)
                expanded[key] = list(self.expand_in_z_basis(word).items())
            return expanded[key]

        return moves

    # -- Leibniz coefficients ----------------------------------------------------

    def _letter_weights(self, i: int) -> tuple[QElem, tuple[QElem, QElem, QElem]]:
        """a = a(alpha_i) and, by case, the weights b^-1, -a b^-1 and a^2 b^-1
        of the Leibniz cases of a position with letter i (:func:`_leibniz_case`)."""
        alpha = self.datum.simple_root(i)
        a, b_inv = self.family.a(alpha), self.family.b_inv(alpha)
        return a, (b_inv, -(a * b_inv), a * a * b_inv)

    def leibniz_coefficient(self, word: Sequence[int], E: Iterable[int], F: Iterable[int]) -> QElem:
        """z^I_{E,F} = (B_1 ... B_k) . 1, where B_j is the Leibniz case of
        position j relative to (E, F) (:func:`_leibniz_case`), walked from the
        right: the key is the reversed tuple of (letter, case) pairs."""
        word = tuple(word)
        k = len(word)
        es, fs = _positions(k, E), _positions(k, F)
        key = tuple((word[j - 1], (j not in es) + (j not in fs)) for j in range(k, 0, -1))
        backend, datum = self.backend, self.datum

        def step(value: QElem, j: int) -> QElem:
            i, case = key[j]
            reflected = weyl_act_q(backend, datum.simple_reflection(i), value)
            return _leibniz_case(case, self._letter_weights(i), value, reflected)

        return _walk(self._leibniz_values, key, step)

    def billey_closed_form(self, word: Sequence[int], E: Iterable[int]) -> QElem:
        """(-1)^(k-|E|) prod_{j not in E} m_j prod_j n_j^{-1} with
        m_j = a(beta_j), n_j = b(beta_j) along the inversion roots beta_j."""
        word = tuple(word)
        k = len(word)
        es = _positions(k, E)
        datum, family = self.datum, self.family
        value = QElem.from_int(self.backend, (-1) ** (k - len(es)))
        for j, root in enumerate(datum.inversion_roots_along(word), 1):
            beta = datum.root_to_weight(root)
            if j not in es:
                value = value * family.a(beta)
            value = value * family.b_inv(beta)
        return value

    def c_supports(self, word: Sequence[int]) -> dict[WeylElement, list[tuple[frozenset, QElem]]]:
        """For every w, the subsets E of positions with c_{word|E, I_w} nonzero,
        each with its c value, from one generic expansion per subword;
        positions are 1-based, subsets in increasing bitmask order."""
        word = tuple(word)
        k = len(word)
        supports: dict[WeylElement, list[tuple[frozenset, QElem]]] = {
            w: [] for w in self.datum.elements
        }
        for mask in range(1 << k):
            positions = [j for j in range(k) if mask >> j & 1]
            e_set = frozenset(j + 1 for j in positions)
            for w, value in self.expand_in_z_basis([word[j] for j in positions]).items():
                supports[w].append((e_set, value))
        return supports

    # -- subword transfer walks --------------------------------------------------

    def formula_column(self, word: Sequence[int]) -> dict[tuple[WeylElement, WeylElement], QElem]:
        """The half column of one word I: every z^I_{I_u,I_v} =
        sum_{E,F} z^I_{E,F} c_{I|E,I_u} c_{I|F,I_v} with u.index <= v.index,
        keyed by (u, v), zeros left out.  The column is symmetric,
        z_{u,v} = z_{v,u}, so the other half is read at (v, u).

        A right-to-left walk along I folds the sum over pairs of subwords:
        the state (x, y) collects the pairs (E, F) of the suffix whose
        products expand onto Z_{I_x} and Z_{I_y}, and its value is their
        Leibniz coefficients times c-weights (:meth:`_formula_step`).  The
        state after a suffix is that suffix's own half column, kept by the
        reversed suffix.
        """
        key = tuple(word)[::-1]
        return _walk(self._columns, key, lambda state, j: self._formula_step(key[j], state))

    def _formula_step(
        self, i: int, state: Mapping[tuple[WeylElement, WeylElement], QElem]
    ) -> dict[tuple[WeylElement, WeylElement], QElem]:
        """The half column of i J from the half column of J (x.index <= y.index).

        Each Leibniz case of the new position (:func:`_leibniz_case`) moves
        the value of (x, y): one in both subwords along the left moves
        (:meth:`_moves`) of x and y, one in E or F only along the left moves
        of that coordinate, and one in neither stays at (x, y).
        The rule is symmetric in x and y, so the mirror (y, x) of an
        off-diagonal state sends the same values to the mirrored targets:
        each target (p, q) of (x, y) adds its value at (min, max), twice when
        p is q.  A diagonal state keeps only its targets with p.index <= q.index.
        """
        backend = self.backend
        s_i = self.datum.simple_reflection(i)
        weights = self._letter_weights(i)
        moves = self._moves(left=True)
        out: dict[tuple[WeylElement, WeylElement], QElem] = {}
        for (x, y), value in state.items():
            mirrored = x is not y
            x_moves = moves(i, x)
            y_moves = moves(i, y) if mirrored else x_moves
            reflected = weyl_act_q(backend, s_i, value)
            both = _leibniz_case(_BOTH, weights, value, reflected)
            for tx, wx in x_moves:
                for ty, wy in y_moves:
                    _fold(out, tx, ty, _weighted(_weighted(both, wx), wy), mirrored)
            single = _leibniz_case(_ONE, weights, value, reflected)
            for tx, wx in x_moves:
                _fold(out, tx, y, _weighted(single, wx), mirrored)
            for ty, wy in y_moves:
                _fold(out, x, ty, _weighted(single, wy), mirrored)
            accumulate(out, (x, y), _leibniz_case(_NEITHER, weights, value, reflected))
        return out

    def billey_row(self, v: WeylElement) -> dict[WeylElement, QElem]:
        """Every b_{v,I_w} = sum_E z^{I_v}_{[k],E} c_{I_v|E,I_w}, keyed by w,
        zeros left out.

        A left-to-right walk along I_v folds the sum over subwords E: the
        state x collects the subsets of the prefix whose products expand onto
        Z_{I_x} (:meth:`_billey_step`).  The inversion roots of a prefix are
        the leading ones of the word, so the state after a prefix is that
        prefix's own row, kept with the prefix's element.
        """
        word = self.words[v]
        return _walk(
            self._billey_rows, word, lambda value, j: self._billey_step(word[j], *value)
        )[1]

    def _billey_step(
        self, i: int, prefix: WeylElement, state: Mapping[WeylElement, QElem]
    ) -> tuple[WeylElement, dict[WeylElement, QElem]]:
        """The element and row of J i from those of the prefix J.

        The factor prod_j b^-1(beta_j) enters one inversion root at a time,
        beta = w(alpha_i) for the element w of J: a position in E takes the
        right moves (:meth:`_moves`) of x with weight b^-1(beta), and one
        left out stays with weight -a(beta) b^-1(beta).  For X and Y the
        first is a polynomial and the second a unit, so no walk state is
        ever divided.
        """
        datum = self.datum
        beta = datum.apply(prefix, datum.simple_root(i))
        moves = self._moves(left=False)
        take = self.family.b_inv(beta)
        skip = -(self.family.a(beta) * take)
        out: dict[WeylElement, QElem] = {}
        for x, value in state.items():
            taken = value * take
            for target, weight in moves(i, x):
                accumulate(out, target, _weighted(taken, weight))
            accumulate(out, x, value * skip)
        return datum.multiply_simple(prefix, i), out

    # -- tau inverses ---------------------------------------------------------------

    def tau_inverse(self, w: WeylElement) -> QWElem:
        """(tau_w)^{-1} via the quadratic relation, along the reversed word."""
        if self.family.name != "tau":
            raise ValueError("tau_inverse is defined for the tau family")
        backend = self.backend
        out = QWElem.one(backend)
        q_inv = QElem.from_s(v_var(backend, -2))
        shift = QWElem.delta(backend, self.datum.identity, self.quadratic[0])
        for i in reversed(self.words[w]):
            out = out * (q_inv * (self.simple_element(i) - shift))
        return out

    # -- relations -----------------------------------------------------------------

    def _relations(self) -> tuple[tuple[SElem, SElem] | None, list[tuple[str, QWElem, bool]]]:
        """The pair (c1, c0) of ``Z_i^2 = c1 Z_i + c0`` solved on the delta
        basis for i = 1 (None when it leaves S), and (name, residual, passed)
        of every relation.  The quadratic entry of i passes only when its
        residual is zero and its own pair lies in S, equals the pair of i = 1
        and is fixed by every s_j; a braid entry passes when its residual is
        zero."""
        datum, one_qw = self.datum, QWElem.one(self.backend)
        reflections = [datum.simple_reflection(j) for j in range(1, datum.rank + 1)]
        first, entries = None, []
        for i in range(1, datum.rank + 1):
            alpha, z = datum.simple_root(i), self.simple_element(i)
            zz = z * z
            c1 = zz.coeff(datum.simple_reflection(i)) * self.family.b_inv(alpha)
            c0 = zz.coeff(datum.identity) - c1 * self.family.a(alpha)
            pair = None if c1.den or c0.den else (c1.num, c0.num)
            if i == 1:
                first = pair
            residual = zz - c1 * z - c0 * one_qw
            passed = residual.is_zero() and pair is not None and pair == first and all(
                weyl_act(self.backend, s_j, c) == c for s_j in reflections for c in pair
            )
            name = f"Z_{i}^2 = ({qelem_to_str(c1)}) Z_{i} + ({qelem_to_str(c0)})"
            entries.append((name, residual, passed))
        for i in range(1, datum.rank + 1):
            for j in range(i + 1, datum.rank + 1):
                m = _bond_order(datum.cartan[i - 1][j - 1] * datum.cartan[j - 1][i - 1])
                lhs = rhs = one_qw
                for t in range(m):
                    lhs = lhs * self.simple_element(i if t % 2 == 0 else j)
                    rhs = rhs * self.simple_element(j if t % 2 == 0 else i)
                residual = lhs - rhs
                entries.append((f"braid({i},{j}) of order {m}", residual, residual.is_zero()))
        return first, entries

    def verify_relations(self) -> list[dict]:
        """Quadratic + braid relation report: dicts with keys name, passed, detail."""
        return [_relation_entry(*entry) for entry in self._relations()[1]]


def _positions(k: int, subset: Iterable[int]) -> set[int]:
    """The 1-based positions of ``subset`` in a word of length k, as a set."""
    positions = set(subset)
    for j in positions:
        if not 1 <= j <= k:
            raise ValueError(f"subset index {j} out of range 1..{k}")
    return positions


def _leibniz_case(case: int, weights: tuple, value: QElem, reflected: QElem) -> QElem:
    """B(f) for f = ``value`` and ``reflected`` = s_i(f) in one Leibniz case
    of a position with letter i: the case's weight (:meth:`Algebra._letter_weights`)
    times s_i(f), plus a f for a position in neither subset."""
    a, by_case = weights
    term = by_case[case] * reflected
    return a * value + term if case == _NEITHER else term


def _fold(out: dict, p: WeylElement, q: WeylElement, value: QElem, mirrored: bool) -> None:
    """Add a contribution to the target (p, q) of a half formula column.

    ``mirrored`` says that the source state stands for itself and its mirror,
    which sends the same value to (q, p): the value lands at the key with the
    lower index first, twice when p is q.  A diagonal source adds only to
    targets with p.index <= q.index, since its mirror image is itself.
    """
    if p.index > q.index:
        if not mirrored:
            return
        p, q = q, p
    elif mirrored and p is q:
        accumulate(out, (p, q), value)
    accumulate(out, (p, q), value)


def _weighted(value, weight: QElem | SElem | int):
    """``value`` times the weight of a move from :meth:`Algebra._moves`."""
    return value if weight == 1 else value * weight


def _bond_order(product: int) -> int:
    return {0: 2, 1: 3, 2: 4, 3: 6}[product]


def _relation_entry(name: str, residual: QWElem, passed: bool) -> dict:
    entry = {"name": name, "passed": passed}
    if not passed:
        entry["detail"] = (
            "the solved pair is not one W-fixed pair in S" if residual.is_zero()
            else repr(residual)
        )
    return entry

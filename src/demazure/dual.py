"""Dual bases, Schubert-type classes, and structure constants.

The dual module Q_W^* has the fixed-point basis {f_w} dual to {delta_w}.  Its
elements (:class:`DualElem`) share the linear structure of Q_W through
:class:`~demazure.twisted.WeylIndexed`.  It is a ring under the pointwise
(Hadamard) product with unity 1 = sum_w f_w, and Q_W acts on it by the
bullet action

    <z . f, z'> = <f, z' z>,   explicitly   p delta_w . (q f_v) = (v w^-1)(p) q f_{v w^-1}.

For an operator family Z with fixed reduced words I_w, the dual classes
Z*_{I_w} (columns of the b-matrix) multiply with structure constants

    Z*_{I_u} Z*_{I_v} = sum_{w >= u, v}  z^{I_w}_{I_u, I_v} Z*_{I_w}.

Two independent routes compute the constants:

* formula route -- the closed form built from Leibniz coefficients,
      z^{I_w}_{I_u,I_v} = sum_{E,F} z^{I_w}_{E,F} c_{I_w|E, I_u} c_{I_w|F, I_v}.
  Each constant is read off the formula column of I_w
  (``Algebra.formula_column``), which holds every (u, v) of the word with
  u.index <= v.index, since z^{I_w}_{I_u,I_v} = z^{I_w}_{I_v,I_u}.  The
  algebra builds it by one transfer walk along I_w for every family: the
  walk's moves come from the c-rule for families with quadratic constants
  (``Algebra.quadratic``, solved from the family's relations) and from the
  generic elimination otherwise;
* oracle route -- Hadamard-multiply the dual classes in the f-basis and
  re-expand by triangular elimination.  For families with quadratic
  constants it runs in S: the scale, the product of the denominators of
  b^-1(beta) over the positive roots, makes every class a polynomial
  N_w = scale Z*_{I_w}; N_u N_v = sum_w c'_w N_w costs one exact division by
  the pivot N_w(w) per constant (each class is kept with its pivot,
  prepared as a divisor when the class is built), and
  z^{I_w}_{I_u,I_v} = c'_w / scale is normalized once.  Other families
  eliminate in Q, multiplying only by the closed-form reciprocals of the
  diagonal entries (``Algebra.leading_coefficient``).  Both use the one
  solver, :func:`~demazure.twisted.expand_in_triangular_basis`, that
  ``Algebra.expand_in_z_basis`` uses too, and neither reads a walk.

One pair comparator, :func:`compare_products`, checks both routes for
``compare_routes``, ``compare_constants`` and ``mult --check``.  Given both
orders of a pair it computes one oracle product: the product of two classes
commutes and the formula route reads both orders from one half-column entry,
so a mismatch is reported at both (u, v, w) and (v, u, w).

The module also provides restriction coefficients b_{w, I_v} with their
matrix identity and their Billey-type closed form (read off the row of the
word, ``Algebra.billey_row``, a walk for every family), the stable bases, and
parabolic products over minimal coset representatives.  A stable basis is a
view of a :class:`DualBasis` of T (:class:`CohStableBasis`, additive) or of
tau (:class:`KStableBasis`, multiplicative): its classes are the dual
classes times the basis's scale, alphahat_{w0} or xhat_{w0}.  Both answer to
one vocabulary: ``stab_minus`` (the dual-basis class), ``stab_minus_bullet``
(the operator-route class), and ``constants_oracle``, ``constants_formula``,
``raw_constants`` and ``compare_constants``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence

from .formal import (
    X_ROOT,
    Backend,
    Divisor,
    FactorSymbol,
    QElem,
    SElem,
    divide_exact,
    expand_factor,
    one,
    prepare_divisor,
    product_over_positive_roots,
    q_equal,
    v_var,
    weyl_act,
    weyl_act_q,
    x_class,
)
from .rootdata import RootDatum, WeylElement, Word
from .serialize import discrepancy_to_json, qelem_to_str, word_to_str
from .twisted import (
    Algebra,
    QWElem,
    WeylIndexed,
    accumulate,
    expand_in_triangular_basis,
)


class DualElem(WeylIndexed):
    """An element of Q_W^* in the fixed-point basis: a finite map w -> Q."""

    __slots__ = ()
    _symbol = "f"

    @staticmethod
    def f(backend: Backend, w: WeylElement, coeff: QElem | SElem | int = 1) -> "DualElem":
        return DualElem(backend, {w: coeff})

    @staticmethod
    def unit(backend: Backend) -> "DualElem":
        """The multiplicative unity 1 = sum_w f_w."""
        one_q = QElem.from_int(backend, 1)
        return DualElem(backend, {w: one_q for w in backend.datum.elements}, _raw=True)

    def __mul__(self, other):
        """The Hadamard product: (f g)(delta_w) = f(delta_w) g(delta_w)."""
        if not isinstance(other, DualElem):
            return self.__rmul__(other)
        small, large = self.coeffs, other.coeffs
        if len(large) < len(small):
            small, large = large, small
        return DualElem(self.backend, {w: q * large[w] for w, q in small.items() if w in large})


def bullet(z: QWElem, f: DualElem) -> DualElem:
    """The action p delta_w . (q f_v) = (v w^-1)(p) q f_{v w^-1}.

    Composes as a left action: (z1 z2) . f = z1 . (z2 . f).
    """
    backend = z.backend
    datum = backend.datum
    out: dict[WeylElement, QElem] = {}
    for w, p in z.coeffs.items():
        winv = datum.inverse(w)
        for v, q in f.coeffs.items():
            tgt = datum.multiply(v, winv)
            accumulate(out, tgt, weyl_act_q(backend, tgt, p) * q)
    return DualElem(backend, out, _raw=True)


def pairing(f: DualElem, z: QWElem) -> QElem:
    """<f, z> = sum_w f_w z_w (Q-bilinear, no twisting)."""
    total = QElem.from_int(f.backend, 0)
    for w, q in f.coeffs.items():
        p = z.coeffs.get(w)
        if p is not None:
            total = total + q * p
    return total


def point_class(backend: Backend, w: WeylElement) -> DualElem:
    """pt_w = (prod_{alpha<0} x_alpha) . f_w = w(prod_{alpha<0} x_alpha) f_w."""
    scalar = product_over_positive_roots(
        backend, lambda wt: x_class(backend, tuple(-c for c in wt))
    )
    return DualElem.f(backend, w, weyl_act(backend, w, scalar))


class Discrepancy(namedtuple("Discrepancy", "location formula oracle")):
    """A location where two routes differ, with each route's value: a Q
    element, or text where a check has no value in Q."""

    __slots__ = ()

    def as_json_entry(self) -> dict:
        def render(value) -> str:
            return qelem_to_str(value) if isinstance(value, QElem) else str(value)

        return {
            "location": list(self.location),
            "formula": render(self.formula),
            "oracle": render(self.oracle),
        }


class DiscrepancyReport:
    """Pointwise mismatches between the formula route and the oracle route.

    An empty report certifies that both routes agree on every location that
    was compared; the report never reconciles or hides a difference.
    """

    def __init__(self) -> None:
        self.entries: list[Discrepancy] = []

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def add(self, location: tuple, formula: QElem, oracle: QElem) -> None:
        self.entries.append(Discrepancy(tuple(location), formula, oracle))

    def compare(self, location: tuple, formula: QElem, oracle: QElem) -> None:
        """Add an entry at ``location`` unless the two values are equal in Q."""
        if not q_equal(formula, oracle):
            self.add(location, formula, oracle)

    def extend(self, other: "DiscrepancyReport") -> None:
        self.entries.extend(other.entries)

    def compare_rows(
        self,
        prefix: tuple,
        formula: Mapping[WeylElement, QElem],
        oracle: Mapping[WeylElement, QElem],
    ) -> None:
        """Add every w where the two rows differ, at ``prefix + (w,)``.

        A key missing from one row counts as 0 there; keys are visited in
        Bruhat-compatible order.
        """
        for w in sorted(formula.keys() | oracle.keys(), key=WeylElement.sort_key):
            f_val, o_val = formula.get(w), oracle.get(w)
            if f_val is None:
                f_val = QElem.from_int(o_val.backend, 0)
            if o_val is None:
                o_val = QElem.from_int(f_val.backend, 0)
            if not q_equal(f_val, o_val):
                self.add(prefix + (word_to_str(w.word),), f_val, o_val)

    def to_json(self) -> dict:
        return discrepancy_to_json(entry.as_json_entry() for entry in self.entries)


def compare_products(
    pairs: Iterable[tuple[WeylElement, WeylElement]],
    formula: Callable[[WeylElement, WeylElement], Mapping[WeylElement, QElem]],
    oracle: Callable[[WeylElement, WeylElement], Mapping[WeylElement, QElem]],
) -> DiscrepancyReport:
    """Formula row vs oracle row of the product for each pair (u, v): the one
    pair comparator of ``compare_routes``, ``compare_constants`` and
    ``mult --check``.

    Both rows are symmetric in u and v, so a pair whose mirror (v, u) is
    listed too is compared once, at the order with v.index > u.index, and its
    mismatches are reported at both orders, one after the other.
    """
    pairs = list(pairs)
    listed = set(pairs)
    report = DiscrepancyReport()
    for u, v in pairs:
        mirrored = u is not v and (v, u) in listed
        if mirrored and v.index < u.index:
            continue
        words = word_to_str(u.word), word_to_str(v.word)
        start = len(report.entries)
        report.compare_rows(words, formula(u, v), oracle(u, v))
        if mirrored:
            report.entries.extend(
                Discrepancy(words[::-1] + entry.location[2:], entry.formula, entry.oracle)
                for entry in report.entries[start:]
            )
    return report


class DualBasis:
    """The dual classes {Z*_{I_w}} of an operator family and their products."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.backend = algebra.backend
        self.datum: RootDatum = algebra.datum
        self.order: tuple[WeylElement, ...] = self.datum.elements  # in sort_key order
        self._dual_cache: dict[WeylElement, DualElem] = {}
        self._scale_factors: tuple[FactorSymbol, ...] | None = None
        # Each N_u with its diagonal entry N_u(u), prepared as a divisor.
        self._scaled_cache: dict[WeylElement, tuple[dict[WeylElement, SElem], Divisor]] = {}

    # -- classes ----------------------------------------------------------

    def unit(self) -> DualElem:
        return DualElem.unit(self.backend)

    def pt(self, w: WeylElement) -> DualElem:
        return point_class(self.backend, w)

    def bott_samelson_class(self, word: Sequence[int]) -> DualElem:
        """zeta_I = Z_{I^rev} . pt_e."""
        reversed_word = tuple(reversed(tuple(word)))
        return bullet(self.algebra.compose_word(reversed_word), self.pt(self.datum.identity))

    def dual_basis_element(self, u: WeylElement) -> DualElem:
        """Z*_{I_u} = sum_{w >= u} b_{w, I_u} f_w (column u of the b-matrix)."""
        cached = self._dual_cache.get(u)
        if cached is None:
            coeffs = {}
            for w in self.order:  # b_row(w) holds only keys v <= w
                val = self.algebra.b_row(w).get(u)
                if val is not None:
                    coeffs[w] = val
            cached = DualElem(self.backend, coeffs, _raw=True)
            self._dual_cache[u] = cached
        return cached

    def duality_pairing(self, u: WeylElement, v: WeylElement) -> QElem:
        return pairing(self.dual_basis_element(u), self.algebra.z_basis_element(v))

    # -- expansion and products (oracle route) -----------------------------

    def expand(self, g: DualElem) -> dict[WeylElement, QElem]:
        """Write g = sum_u c_u Z*_{I_u}; raises if g is outside the span."""
        return expand_in_triangular_basis(
            self.order,
            g.coeffs,
            lambda u: self.dual_basis_element(u).coeffs,
            lambda u, cur: cur * self.algebra.leading_coefficient(u),
        )

    def scale_factors(self) -> tuple[FactorSymbol, ...]:
        """The denominator factors of b^-1(beta) over the positive roots beta.

        Their product, the scale, is 1 for ``x`` and ``y``, alphahat_{w0} for
        ``t`` and xhat_{w0} for ``tau``; it clears every denominator of a dual
        class of a family with quadratic constants, and the stable bases of
        ``t`` and ``tau`` are the dual classes times it.
        """
        if self._scale_factors is None:
            datum, b_inv = self.datum, self.algebra.family.b_inv
            self._scale_factors = tuple(sorted(
                factor
                for beta in datum.positive_roots
                for factor in b_inv(datum.root_to_weight(beta)).den
            ))
        return self._scale_factors

    def scaled_class(self, u: WeylElement) -> dict[WeylElement, SElem]:
        """N_u = scale * Z*_{I_u} as polynomials: each numerator times the
        scale factors missing from its denominator.  Raises ``ValueError``
        when a denominator is not part of the scale."""
        return self._scaled(u)[0]

    def _scaled(self, u: WeylElement) -> tuple[dict[WeylElement, SElem], Divisor]:
        """N_u and its diagonal entry N_u(u) prepared as a divisor, the pivot
        of u in :meth:`scaled_product`, both built once."""
        cached = self._scaled_cache.get(u)
        if cached is None:
            scale = Counter(self.scale_factors())
            column = {}
            for w, val in self.dual_basis_element(u).coeffs.items():
                den = Counter(val.den)
                left = sorted(f"{f.kind}{f.root}" for f in (den - scale).elements())
                if left:
                    raise ValueError(
                        f"the scale leaves a denominator {left} in the class of "
                        f"u = {u.word} at w = {w.word}"
                    )
                num = val.num
                for factor in (scale - den).elements():
                    num = num * expand_factor(self.backend, factor)
                column[w] = num
            cached = self._scaled_cache[u] = (column, prepare_divisor(column[u]))
        return cached

    def scaled_product(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, SElem]:
        """The nonzero c'_w in N_u N_v = sum_w c'_w N_w, by elimination in S.

        Each constant costs one exact division by the diagonal entry N_w(w),
        prepared with its class (:meth:`_scaled`); a division that fails or a
        residue that survives raises ``ValueError``.  The cached classes are
        never changed.
        """
        nu, nv = self.scaled_class(u), self.scaled_class(v)

        def pivot(w: WeylElement, cur: SElem) -> SElem:
            c = divide_exact(self.backend, cur, self._scaled(w)[1])
            if c is None:
                raise ValueError(
                    f"the diagonal entry N_w(w) does not divide the residue at w = {w.word}"
                )
            return c

        return expand_in_triangular_basis(
            self.order,
            {w: p * nv[w] for w, p in nu.items() if w in nv},
            self.scaled_class,
            pivot,
        )

    def product_oracle(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, QElem]:
        """The nonzero z^{I_w}_{I_u, I_v}: the product of the two dual classes,
        expanded again by triangular elimination.

        Families with quadratic constants expand the scaled classes in S
        (:meth:`scaled_product`) and divide by the scale once per constant;
        the others expand in Q (:meth:`expand`).
        """
        if self.algebra.quadratic is None:
            return self.expand(self.dual_basis_element(u) * self.dual_basis_element(v))
        den = self.scale_factors()
        return {w: QElem(c, den) for w, c in self.scaled_product(u, v).items()}

    # -- formula route ------------------------------------------------------

    def structure_constant(
        self,
        u: WeylElement,
        v: WeylElement,
        w: WeylElement,
        top_word: Sequence[int] | None = None,
    ) -> QElem:
        """z^{I_w}_{I_u, I_v} = sum_{E,F} z^{I_w}_{E,F} c_{I_w|E,I_u} c_{I_w|F,I_v},
        read off the half formula column of the word at (u, v) or (v, u),
        whichever has the lower index first."""
        if top_word is None:
            word: Word = self.algebra.word(w)
        else:
            word = tuple(top_word)
            if not self.datum.is_reduced_word(word, w):
                raise ValueError(f"{word} is not a reduced word for the requested element")
        key = (u, v) if u.index <= v.index else (v, u)
        value = self.algebra.formula_column(word).get(key)
        return value if value is not None else QElem.from_int(self.backend, 0)

    def product_formula(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, QElem]:
        """The nonzero z^{I_w}_{I_u, I_v} over w >= u, v (mirrors ``product_oracle``),
        walking only the columns of the common upper interval of u and v."""
        upper, out = self.datum.upper_intervals, {}
        for w in self.datum.members(upper[u.index] & upper[v.index]):
            val = self.structure_constant(u, v, w)
            if not val.is_zero():
                out[w] = val
        return out

    # -- route comparison --------------------------------------------------

    def _pairs(self, pairs: Iterable[tuple[WeylElement, WeylElement]] | None):
        if pairs is None:
            return [(u, v) for u in self.order for v in self.order]
        return list(pairs)

    def compare_routes(
        self, pairs: Iterable[tuple[WeylElement, WeylElement]] | None = None
    ) -> DiscrepancyReport:
        """Formula route vs oracle route, entry by entry (zeros included)."""
        return compare_products(
            self._pairs(pairs), self.product_formula, self.product_oracle
        )

    # -- restrictions --------------------------------------------------------

    def restriction(self, v: WeylElement, w: WeylElement) -> QElem:
        """b_{v, I_w} = Z*_{I_w}(delta_v), the restriction of the w-class to the point v."""
        val = self.algebra.b_row(v).get(w)
        return val if val is not None else QElem.from_int(self.backend, 0)

    def restriction_via_billey(self, v: WeylElement, w: WeylElement) -> QElem:
        """b_{v, I_w} = sum_E z^{I_v}_{[k],E} c_{I_v|E, I_w} (closed-form route),
        read off the Billey row of v."""
        val = self.algebra.billey_row(v).get(w)
        return val if val is not None else QElem.from_int(self.backend, 0)

    def restriction_matrices(
        self, w: WeylElement
    ) -> tuple[dict, dict, dict]:
        """The matrices p_w, b, b_w of the conjugation identity p_w b = b b_w.

        Entries (rows u, columns v over the Bruhat-sorted element list):
        p_w(u, v) = coefficient of Z*_{I_v} in Z*_{I_w} Z*_{I_u};
        b(u, v)   = b_{v, I_u};
        b_w(u, v) = delta_{u,v} b_{u, I_w}.
        """
        zero_q = QElem.from_int(self.backend, 0)
        p_mat: dict[tuple, QElem] = {}
        for u in self.order:
            row = self.product_oracle(w, u)
            for v in self.order:
                p_mat[(u, v)] = row.get(v, zero_q)
        b_mat = {(u, v): self.restriction(v, u) for u in self.order for v in self.order}
        bw_mat = {
            (u, v): self.restriction(u, w) if u is v else zero_q
            for u in self.order
            for v in self.order
        }
        return p_mat, b_mat, bw_mat

    def check_restriction_matrices(self, w: WeylElement) -> DiscrepancyReport:
        """Verify p_w . b == b . b_w entrywise (no matrix inversion needed)."""
        p_mat, b_mat, bw_mat = self.restriction_matrices(w)
        zero_q = QElem.from_int(self.backend, 0)
        report = DiscrepancyReport()
        for u in self.order:
            for t in self.order:
                lhs = zero_q
                rhs = zero_q
                for v in self.order:
                    lhs = lhs + p_mat[(u, v)] * b_mat[(v, t)]
                    rhs = rhs + b_mat[(u, v)] * bw_mat[(v, t)]
                loc = [word_to_str(x.word) for x in (w, u, t)]
                report.compare(("matrix", *loc), lhs, rhs)
        return report

    # -- parabolic products ---------------------------------------------------

    def parabolic_basis(self, subset: Iterable[int]) -> "DualBasis":
        """The same family with J-compatible words I_w = I_u + I_v (w = uv)."""
        words = self.datum.j_compatible_words(subset)
        return DualBasis(Algebra(self.algebra.family, words))

    def parabolic_table(
        self, subset: Iterable[int]
    ) -> dict[tuple[WeylElement, WeylElement], dict[WeylElement, QElem]]:
        """The products of the parabolic basis's dual classes, pair by pair:
        (u, v) -> the nonzero z^{I_w}_{I_u, I_v}, for u and v over the
        minimal coset representatives of W_J, in ``sort_key`` order."""
        subset = tuple(subset)
        basis = self.parabolic_basis(subset)
        reps = self.datum.min_coset_reps(subset)
        return {(u, v): basis.product_oracle(u, v) for u in reps for v in reps}


class StableBasis:
    """What the two stable bases share: a view of a :class:`DualBasis` of the
    operator family named ``family``, whose scale (the product of
    ``basis.scale_factors()``) times lambda_w Z*_{I_w} is the class stab-_w.

    Both bases answer to one vocabulary.  ``stab_minus`` is the dual-basis
    class and ``stab_minus_bullet`` the same class by the operator route;
    ``constants_oracle`` expands products by the S oracle,
    ``constants_formula`` reads them off the formula route, ``raw_constants``
    expands stab-_u stab-_v in the operator-route classes (a third route,
    which reads no b-matrix), and ``compare_constants`` reports where the
    formula and oracle routes differ.  Each subclass gives ``family``,
    lambda_w and its inverse (``_weight``, ``_inverse_weight``),
    ``stab_minus_bullet`` and its constants convention.
    """

    family: str

    def __init__(self, basis: DualBasis):
        name = basis.algebra.family.name
        if name != self.family:
            raise ValueError(
                f"this stable basis wraps a DualBasis of {self.family!r}, not {name!r}"
            )
        self.basis, self.algebra = basis, basis.algebra
        self.backend, self.datum = basis.backend, basis.datum
        self.scale = one(self.backend)
        for factor in basis.scale_factors():
            self.scale = self.scale * expand_factor(self.backend, factor)

    def stab_minus(self, w: WeylElement) -> DualElem:
        """The dual-basis class lambda_w scale Z*_{I_w}."""
        return QElem.from_s(self.scale * self._weight(w)) * self.basis.dual_basis_element(w)

    def raw_constants(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, QElem]:
        """Expansion of stab-_u stab-_v in the operator-route classes: the S
        oracle's constants of the scaled classes times lambda_u lambda_v / lambda_w."""
        g = self.stab_minus_bullet(u) * self.stab_minus_bullet(v)
        hat_recip = QElem(one(self.backend), self.basis.scale_factors())

        def pivot(w: WeylElement, cur: QElem) -> QElem:
            return cur * (
                hat_recip * self.algebra.leading_coefficient(w) * self._inverse_weight(w)
            )

        return expand_in_triangular_basis(
            self.basis.order, g.coeffs, lambda w: self.stab_minus_bullet(w).coeffs, pivot
        )

    def compare_constants(
        self, pairs: Iterable[tuple[WeylElement, WeylElement]] | None = None
    ) -> DiscrepancyReport:
        return compare_products(
            self.basis._pairs(pairs), self.constants_formula, self.constants_oracle
        )


class CohStableBasis(StableBasis):
    """Stable classes over the additive backend: a view of a DualBasis of T,
    whose scale is alphahat_{w0}, with lambda_w = (-1)^{l(w0)}:

    stab+_w = T_{w^-1} . (alpha_{w0} f_e)                       (support {v <= w}),
    stab-_w = (-1)^{l(w0)} alphahat_{w0} T*_w                    (dual-basis route)
            = (-1)^{l(w0)} T_{w^-1 w0} . (alpha_{w0} f_{w0})     (bullet route, support {v >= w}).

    ``constants_oracle`` expands products of the *normalized* classes
    N_w = alphahat_{w0} T*_w, whose constants are alphahat_{w0} z^T_{u,v,w};
    these are the values the worked small-rank tables reproduce, and
    ``raw_constants`` gives (-1)^{l(w0)} times them.  The literal closed form
    ``constants_formula`` carries one extra factor alphahat_{w0}, and
    ``compare_constants`` reports that systematic mismatch instead of
    silently reconciling the two routes.
    """

    family = "t"

    def __init__(self, basis: DualBasis):
        super().__init__(basis)
        self.alpha_w0 = product_over_positive_roots(
            self.backend, lambda wt: x_class(self.backend, wt)
        )
        self._sign_w0 = -1 if self.datum.longest_element.length % 2 else 1

    def _weight(self, w: WeylElement) -> int:
        """lambda_w = (-1)^{l(w0)}, its own inverse."""
        return self._sign_w0

    _inverse_weight = _weight

    # -- the classes ---------------------------------------------------------

    def stab_plus(self, w: WeylElement) -> DualElem:
        z = self.algebra.z_basis_element(self.datum.inverse(w))
        start = DualElem.f(self.backend, self.datum.identity, self.alpha_w0)
        return bullet(z, start)

    def stab_minus_bullet(self, w: WeylElement) -> DualElem:
        w0 = self.datum.longest_element
        target = self.datum.multiply(self.datum.inverse(w), w0)
        z = self.algebra.z_basis_element(target)
        start = DualElem.f(self.backend, w0, self.alpha_w0)
        return self._sign_w0 * bullet(z, start)

    def _hat_y_bullet(self, g: DualElem) -> DualElem:
        """hY . g for hY = sum_w delta_w w(c), c = (alpha_{w0} alphahat_{w0})^{-1}.

        Since (v w^-1)(w(c)) = v(c), every f_t gets the same coefficient
        sum_x x(c) g_x, so hY . g is that sum times the unit.
        """
        datum = self.datum
        den = [FactorSymbol(X_ROOT, datum.root_to_weight(beta)) for beta in datum.positive_roots]
        c = QElem(one(self.backend), den + list(self.basis.scale_factors()))
        total = QElem.from_int(self.backend, 0)
        for x, g_x in g.coeffs.items():
            total = total + weyl_act_q(self.backend, x, c) * g_x
        return total * self.basis.unit()

    # -- duality pairings (Lemma-style identities) ----------------------------

    def pairing_with_stab(self, v: WeylElement, u: WeylElement) -> DualElem:
        """hY . (stab+_v stab-_u), stab-_u by the operator route; equals
        (-1)^{l(w0)} 1 iff v == u, else 0."""
        return self._hat_y_bullet(self.stab_plus(v) * self.stab_minus_bullet(u))

    def pairing_with_dual(self, v: WeylElement, u: WeylElement) -> DualElem:
        """hY . (stab+_v alphahat_{w0} T*_u), from stab-_u by the dual-basis
        route; equals 1 iff v == u, else 0."""
        return self._sign_w0 * self._hat_y_bullet(self.stab_plus(v) * self.stab_minus(u))

    # -- structure constants ---------------------------------------------------

    def constants_oracle(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, QElem]:
        return {w: QElem.from_s(c) for w, c in self.basis.scaled_product(u, v).items()}

    def constants_formula(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, QElem]:
        scale = QElem.from_s(self.scale * self.scale)
        return {w: scale * val for w, val in self.basis.product_formula(u, v).items()}


class KStableBasis(StableBasis):
    """Stable classes over the multiplicative backend: a view of a DualBasis
    of tau, whose scale is xhat_{w0}, with lambda_w = q_w^{1/2} = v^{l(w)}:

    stab-_w = q_w^{1/2} xhat_{w0} (tau_w)*          (dual-basis route)
            = q_{w0} q_w^{-1/2} (tau_{w0 w})^{-1} . (prod_{alpha>0} (1 - e^alpha) f_{w0})
                                                     (bullet route),
    and products expand as stab-_u stab-_v = sum_w p^w_{u,v} stab-_w with

        p^w_{u,v} = q^{(l(u)+l(v)-l(w))/2} xhat_{w0} z^tau_{u,v,w}.

    The oracle, formula and raw routes all compute p^w_{u,v}; they agree, so
    ``compare_constants`` returns an empty report.
    """

    family = "tau"

    def __init__(self, basis: DualBasis):
        super().__init__(basis)
        # prod_{alpha > 0} (1 - e^alpha) = prod_{alpha < 0} x_alpha
        self.pos_exp_prod = product_over_positive_roots(
            self.backend, lambda wt: x_class(self.backend, tuple(-c for c in wt))
        )

    def _weight(self, w: WeylElement) -> SElem:
        """lambda_w = v^{l(w)}."""
        return v_var(self.backend, w.length)

    def _inverse_weight(self, w: WeylElement) -> SElem:
        return v_var(self.backend, -w.length)

    def stab_minus_bullet(self, w: WeylElement) -> DualElem:
        w0 = self.datum.longest_element
        scale = QElem.from_s(v_var(self.backend, 2 * w0.length - w.length))
        z = self.algebra.tau_inverse(self.datum.multiply(w0, w))
        start = DualElem.f(self.backend, w0, self.pos_exp_prod)
        return scale * bullet(z, start)

    def constants_oracle(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, QElem]:
        return {
            w: QElem.from_s(v_var(self.backend, u.length + v.length - w.length) * c)
            for w, c in self.basis.scaled_product(u, v).items()
        }

    def constants_formula(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, QElem]:
        return {
            w: QElem.from_s(v_var(self.backend, u.length + v.length - w.length) * self.scale) * val
            for w, val in self.basis.product_formula(u, v).items()
        }

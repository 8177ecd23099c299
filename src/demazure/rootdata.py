"""Root data and Weyl group combinatorics.

Conventions
-----------
* A Cartan matrix ``A`` has entries ``A[i][j] = <alpha_j, alpha_i^vee>``
  (0-based internally; the public API uses 1-based simple-root indices).
* The simple reflection acts by ``s_i(lam) = lam - <lam, alpha_i^vee> alpha_i``.
* Words multiply left to right: the word ``(i_1, ..., i_k)`` denotes
  ``s_{i_1} s_{i_2} ... s_{i_k}``, acting on weights by
  ``w(lam) = s_{i_1}(s_{i_2}(... s_{i_k}(lam)))``.
* Two weight lattices are supported:

  - ``"simply-connected"``: basis = fundamental weights, so the simple root
    ``alpha_j`` has coordinates equal to the j-th column of the Cartan
    matrix and ``s_i(lam) = lam - lam_i * alpha_i``.
  - ``"adjoint"``: basis = simple roots.

* Roots are also tracked in *root coordinates* (integer combinations of the
  simple roots); this description is shared by both lattices and is used to
  canonicalize Weyl group elements.

* Group products are table lookups.  Enumerating W records ``w s_i`` for
  every element and generator once, ``s_i w`` and ``w^-1`` beside it, and
  each element's root and lattice matrices; words, products, descents,
  Bruhat order and Demazure products are folds over these tables.  Matrices
  serve only coordinates: the action on roots and weights, and inversions.

Only finite (spherical) types are allowed; a Cartan matrix is accepted
exactly when all of its principal minors are positive, and rejected with the
first offending principal submatrix otherwise.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

Word = tuple[int, ...]
Weight = tuple[int, ...]
RootVector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

SIMPLY_CONNECTED = "simply-connected"
ADJOINT = "adjoint"
LATTICES = (SIMPLY_CONNECTED, ADJOINT)

DEFAULT_MAX_RANK = 5
DEFAULT_MAX_ORDER = 1920


# ---------------------------------------------------------------------------
# Cartan matrices
# ---------------------------------------------------------------------------


def named_cartan_matrix(label: str) -> list[list[int]]:
    """Return the Cartan matrix for a standard type label such as ``"A2"``.

    >>> named_cartan_matrix("B2")
    [[2, -1], [-2, 2]]
    """
    label = label.strip()
    if len(label) < 2 or label[0].upper() not in "ABCDFG" or not label[1:].isdigit():
        raise ValueError(f"unrecognized type label {label!r}")
    kind, n = label[0].upper(), int(label[1:])
    if n < 1:
        raise ValueError(f"rank must be positive, got {label!r}")

    def chain(size: int) -> list[list[int]]:
        mat = [[0] * size for _ in range(size)]
        for i in range(size):
            mat[i][i] = 2
            if i + 1 < size:
                mat[i][i + 1] = -1
                mat[i + 1][i] = -1
        return mat

    if kind == "A":
        return chain(n)
    if kind == "B":
        if n < 2:
            raise ValueError("type B requires rank >= 2")
        mat = chain(n)
        mat[n - 1][n - 2] = -2  # alpha_n is the short root
        return mat
    if kind == "C":
        if n < 2:
            raise ValueError("type C requires rank >= 2")
        mat = chain(n)
        mat[n - 2][n - 1] = -2  # alpha_n is the long root
        return mat
    if kind == "D":
        if n < 4:
            raise ValueError("type D requires rank >= 4")
        mat = chain(n - 1)
        for row in mat:
            row.append(0)
        mat.append([0] * n)
        mat[n - 1][n - 1] = 2
        mat[n - 3][n - 1] = -1
        mat[n - 1][n - 3] = -1
        mat[n - 2][n - 1] = 0
        mat[n - 1][n - 2] = 0
        return mat
    if kind == "F":
        if n != 4:
            raise ValueError("type F requires rank 4")
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    if kind == "G":
        if n != 2:
            raise ValueError("type G requires rank 2")
        return [[2, -1], [-3, 2]]
    raise ValueError(f"unrecognized type label {label!r}")


def _principal_minor(mat: Sequence[Sequence[int]], rows: Sequence[int]) -> int:
    """Determinant of the principal submatrix on the given row/column set, by
    fraction-free (Bareiss) elimination: every division is exact."""
    sub = [[mat[r][c] for c in rows] for r in rows]
    n = len(sub)
    sign, previous = 1, 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if sub[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            sub[col], sub[pivot] = sub[pivot], sub[col]
            sign = -sign
        top = sub[col]
        for r in range(col + 1, n):
            row = sub[r]
            for c in range(col + 1, n):
                row[c] = (row[c] * top[col] - row[col] * top[c]) // previous
        previous = top[col]
    return sign * sub[n - 1][n - 1]


def validate_cartan_matrix(mat: Sequence[Sequence[int]], max_rank: int | None = None) -> None:
    """Check shape, the rank cap, integrality, sign pattern, and finite type.

    Raises ``ValueError`` describing the first violated condition; for a
    non-finite matrix the message names an offending principal submatrix.
    The cap is checked before the finite-type scan, which visits all 2^n
    principal submatrices.
    """
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("Cartan matrix must be square and non-empty")
    if max_rank is not None and n > max_rank:
        raise ValueError(f"rank {n} exceeds the cap {max_rank}")
    for i in range(n):
        for j in range(n):
            entry = mat[i][j]
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ValueError(f"Cartan entry ({i + 1},{j + 1}) must be an integer")
            if i == j and entry != 2:
                raise ValueError(f"Cartan diagonal entry ({i + 1},{i + 1}) must be 2")
            if i != j and entry > 0:
                raise ValueError(f"Cartan off-diagonal entry ({i + 1},{j + 1}) must be <= 0")
    for i in range(n):
        for j in range(n):
            if i != j and (mat[i][j] == 0) != (mat[j][i] == 0):
                raise ValueError(
                    f"Cartan entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                    "must vanish together"
                )
    for size in range(1, n + 1):
        for rows in itertools.combinations(range(n), size):
            if _principal_minor(mat, rows) <= 0:
                labels = ", ".join(str(r + 1) for r in rows)
                raise ValueError(
                    "Cartan matrix is not of finite type: principal submatrix on "
                    f"rows/columns {{{labels}}} has non-positive determinant"
                )


# ---------------------------------------------------------------------------
# Weyl group elements
# ---------------------------------------------------------------------------


class WeylElement:
    """A Weyl group element, identified by its action on root coordinates.

    ``word`` is the canonical reduced word: minimal length, then
    lexicographically smallest.  ``index`` is the element's position in
    :attr:`RootDatum.elements` and the row of its datum's product table; it
    takes no part in equality or hashing.  Elements are immutable; the hash
    of ``(word, root_matrix)`` is computed once, at construction.
    """

    __slots__ = ("word", "root_matrix", "index", "_hash")

    word: Word
    root_matrix: Matrix
    index: int

    def __init__(self, word: Word, root_matrix: Matrix, index: int) -> None:
        set_slot = object.__setattr__
        set_slot(self, "word", word)
        set_slot(self, "root_matrix", root_matrix)
        set_slot(self, "index", index)
        set_slot(self, "_hash", hash((word, root_matrix)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"WeylElement is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"WeylElement is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not WeylElement:
            return NotImplemented
        return self is other or (
            self.word == other.word and self.root_matrix == other.root_matrix
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return WeylElement, (self.word, self.root_matrix, self.index)

    @property
    def length(self) -> int:
        return len(self.word)

    def sort_key(self) -> tuple[int, Word]:
        return (len(self.word), self.word)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"W[{''.join(map(str, self.word)) or 'e'}]"


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def _mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class RootDatum:
    """A finite root datum: Cartan matrix, lattice choice, and Weyl group.

    An element's ``index`` numbers its row in the product tables and in the
    Bruhat table, and its bit in that table's sets.  Construct via
    :func:`build_root_datum`.
    """

    def __init__(
        self,
        cartan: Sequence[Sequence[int]],
        lattice: str = SIMPLY_CONNECTED,
        label: str | None = None,
        max_rank: int = DEFAULT_MAX_RANK,
        max_order: int = DEFAULT_MAX_ORDER,
    ) -> None:
        validate_cartan_matrix(cartan, max_rank)
        if lattice not in LATTICES:
            raise ValueError(f"lattice must be one of {LATTICES}, got {lattice!r}")
        n = len(cartan)
        self.cartan: Matrix = tuple(tuple(int(x) for x in row) for row in cartan)
        self.rank = n
        self.lattice = lattice
        self.label = label
        self.max_order = max_order

        # Simple reflections on root coordinates: row i is replaced.
        self._root_refl: dict[int, Matrix] = {}
        # Simple reflections on lattice coordinates.
        self._lat_refl: dict[int, Matrix] = {}
        for i in range(n):
            root_rows = [[int(r == c) for c in range(n)] for r in range(n)]
            for j in range(n):
                root_rows[i][j] -= self.cartan[i][j]
            self._root_refl[i + 1] = tuple(tuple(r) for r in root_rows)
            if lattice == ADJOINT:
                self._lat_refl[i + 1] = self._root_refl[i + 1]
            else:
                lat_rows = [[int(r == c) for c in range(n)] for r in range(n)]
                for r in range(n):
                    lat_rows[r][i] -= self.cartan[r][i]
                self._lat_refl[i + 1] = tuple(tuple(r) for r in lat_rows)

        self._enumerate_weyl_group()
        self._positive_roots = self._enumerate_positive_roots()
        if len(self._positive_roots) != self.longest_element.length:
            raise AssertionError("positive root count does not match longest length")
        self._all_words_cache: dict[int, tuple[Word, ...]] = {}

    # -- construction ------------------------------------------------------

    def _enumerate_weyl_group(self) -> None:
        """Enumerate W breadth-first and record the tables ``w -> w s_i``,
        ``w -> s_i w`` and ``w -> w^-1``, and each element's lattice matrix.

        Each element's successors are listed in letter order and the elements
        are visited in discovery order, so every element is first reached by
        its (length, lex)-minimal reduced word and the list comes out sorted
        by :meth:`WeylElement.sort_key`.  ``_right[w.index][i - 1]`` is the
        index of ``w s_i``; these are the only matrix products the group
        operations ever need.  A new element ``w s_i`` gets the lattice matrix
        of ``w`` times that of ``s_i``, the product along its word.
        ``_inverse[w.index]`` folds the reversed word, and
        ``_left[w.index][i - 1]``, the index of ``s_i w``, is read off as
        ``(w^-1 s_i)^-1``.
        """
        n = self.rank
        identity = WeylElement((), _identity(n), 0)
        by_matrix: dict[Matrix, WeylElement] = {identity.root_matrix: identity}
        elements = [identity]
        lattice = [identity.root_matrix]
        right: list[tuple[int, ...]] = []
        for w in elements:  # grows while it is walked
            row = []
            for i in range(1, n + 1):
                mat = _mat_mul(w.root_matrix, self._root_refl[i])
                elem = by_matrix.get(mat)
                if elem is None:
                    elem = WeylElement(w.word + (i,), mat, len(elements))
                    by_matrix[mat] = elem
                    elements.append(elem)
                    lattice.append(_mat_mul(lattice[w.index], self._lat_refl[i]))
                    if len(elements) > self.max_order:
                        raise ValueError(
                            f"Weyl group order exceeds the cap {self.max_order}"
                        )
                row.append(elem.index)
            right.append(tuple(row))
        self._elements = tuple(elements)
        self._right = tuple(right)
        self._lattice = tuple(lattice)
        self._inverse = inverse = tuple(self._fold(0, reversed(w.word)) for w in elements)
        self._left = tuple(
            tuple(inverse[right[inverse[w]][i]] for i in range(n)) for w in range(len(elements))
        )
        self.identity = identity
        self.longest_element = elements[-1]
        if len(elements) > 1 and elements[-2].length == self.longest_element.length:
            raise AssertionError("longest element is not unique")

    def _enumerate_positive_roots(self) -> tuple[RootVector, ...]:
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        roots: set[RootVector] = set(simple)
        frontier = list(simple)
        while frontier:
            new: list[RootVector] = []
            for beta in frontier:
                for i in range(1, n + 1):
                    img = _mat_vec(self._root_refl[i], beta)
                    if img not in roots and all(c >= 0 for c in img):
                        roots.add(img)
                        new.append(img)
            frontier = new
        return tuple(sorted(roots, key=lambda r: (sum(r), r)))

    # -- basic group operations --------------------------------------------

    @property
    def elements(self) -> tuple[WeylElement, ...]:
        return self._elements

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def positive_roots(self) -> tuple[RootVector, ...]:
        return self._positive_roots

    def _checked(self, word: Iterable[int]) -> Word:
        """``word`` as a tuple, after checking that every letter is in range."""
        word = tuple(word)
        if word and not (1 <= min(word) and max(word) <= self.rank):
            bad = next(i for i in word if not 1 <= i <= self.rank)
            raise ValueError(f"word letter {bad} out of range 1..{self.rank}")
        return word

    def _fold(self, start: int, word: Iterable[int]) -> int:
        """Index of ``w s_{i_1} ... s_{i_k}`` where ``w`` has index ``start``."""
        right = self._right
        for i in word:
            start = right[start][i - 1]
        return start

    def simple_reflection(self, i: int) -> WeylElement:
        return self.multiply_simple(self.identity, i)

    def element_by_word(self, word: Iterable[int]) -> WeylElement:
        """The element represented by an arbitrary (not necessarily reduced) word."""
        return self._elements[self._fold(0, self._checked(word))]

    def multiply(self, u: WeylElement, v: WeylElement) -> WeylElement:
        return self._elements[self._fold(u.index, v.word)]

    def multiply_simple(self, w: WeylElement, i: int) -> WeylElement:
        """The product ``w s_i``."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range 1..{self.rank}")
        return self._elements[self._right[w.index][i - 1]]

    def left_multiply_simple(self, i: int, w: WeylElement) -> WeylElement:
        """The product ``s_i w``."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range 1..{self.rank}")
        return self._elements[self._left[w.index][i - 1]]

    def inverse(self, w: WeylElement) -> WeylElement:
        return self._elements[self._inverse[w.index]]

    # -- descents, Bruhat order, Demazure product ---------------------------

    def root_action(self, w: WeylElement, beta: Sequence[int]) -> RootVector:
        """Apply ``w`` to a vector in root coordinates."""
        return _mat_vec(w.root_matrix, beta)

    def has_right_descent(self, w: WeylElement, i: int) -> bool:
        """Whether ``w s_i < w``, i.e. whether ``w(alpha_i)`` is a negative root."""
        return self.multiply_simple(w, i).length < w.length

    def left_descents(self, w: WeylElement) -> tuple[int, ...]:
        inv = self.inverse(w)
        return tuple(i for i in range(1, self.rank + 1) if self.has_right_descent(inv, i))

    def demazure_product(self, word: Iterable[int]) -> WeylElement:
        """Fold the word with w * s_i := w s_i when that goes up, else w."""
        right, elements = self._right, self._elements
        w = length = 0
        for i in self._checked(word):
            up = right[w][i - 1]
            if elements[up].length > length:
                w, length = up, length + 1
        return elements[w]

    @cached_property
    def upper_intervals(self) -> tuple[int, ...]:
        """Entry ``u.index`` is the set of ``w >= u``, with bit ``w.index``,
        built on first use, longest element first: for a right ascent s of u,
        ``(u s).index > u.index``, and the lifting property gives
        ``{w >= u} = {w >= u s}`` together with ``{w s : w >= u s}``."""
        right = self._right
        upper = [0] * (len(right) - 1) + [1 << (len(right) - 1)]
        for u in reversed(range(len(right) - 1)):
            i, us = next((i, us) for i, us in enumerate(right[u]) if us > u)
            upper[u] = upper[us]
            for w in self.members(upper[us]):
                upper[u] |= 1 << right[w.index][i]
        return tuple(upper)

    def members(self, mask: int) -> list[WeylElement]:
        """The elements whose bits are set in ``mask``, in :attr:`elements` order."""
        return [self._elements[i] for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Whether ``u <= w`` in Bruhat order: one bit of the upper interval of ``u``."""
        return self.upper_intervals[u.index] >> w.index & 1 == 1

    def all_reduced_words(self, w: WeylElement) -> tuple[Word, ...]:
        cached = self._all_words_cache.get(w.index)
        if cached is not None:
            return cached
        if w.length == 0:
            result: tuple[Word, ...] = ((),)
        else:
            collected: list[Word] = []
            for i in self.left_descents(w):
                rest = self.multiply(self.simple_reflection(i), w)
                collected.extend((i,) + tail for tail in self.all_reduced_words(rest))
            result = tuple(sorted(collected))
        self._all_words_cache[w.index] = result
        return result

    def is_reduced_word(self, word: Sequence[int], w: WeylElement) -> bool:
        """Whether ``word`` is a reduced word for ``w``."""
        return self.element_by_word(word) is w and len(word) == w.length

    # -- lattice action ------------------------------------------------------

    def lattice_matrix(self, w: WeylElement) -> Matrix:
        return self._lattice[w.index]

    def apply(self, w: WeylElement, weight: Sequence[int]) -> Weight:
        """Apply ``w`` to a weight given in the chosen lattice basis."""
        if len(weight) != self.rank:
            raise ValueError(f"weight must have {self.rank} coordinates")
        return _mat_vec(self._lattice[w.index], weight)

    def simple_root(self, j: int) -> Weight:
        """Lattice coordinates of ``alpha_j``."""
        if not 1 <= j <= self.rank:
            raise ValueError(f"simple root index {j} out of range 1..{self.rank}")
        if self.lattice == ADJOINT:
            return tuple(int(j - 1 == c) for c in range(self.rank))
        return tuple(self.cartan[r][j - 1] for r in range(self.rank))

    def root_to_weight(self, beta: Sequence[int]) -> Weight:
        """Lattice coordinates of a vector given in root coordinates."""
        if self.lattice == ADJOINT:
            return tuple(int(c) for c in beta)
        return tuple(
            sum(self.cartan[r][j] * beta[j] for j in range(self.rank))
            for r in range(self.rank)
        )

    def inversion_roots_along(self, word: Sequence[int]) -> tuple[RootVector, ...]:
        """Roots ``beta_j = s_{i_1} ... s_{i_{j-1}}(alpha_{i_j})`` along a word.

        For a reduced word these are the (distinct, positive) inversions of
        the inverse element; for a general word signs may repeat.  Each
        ``beta_j`` is column ``i_j`` of the prefix's root matrix, and the
        product table folds the prefix.
        """
        right, elements = self._right, self._elements
        out: list[RootVector] = []
        prefix = 0  # index of s_{i_1} ... s_{i_{j-1}}
        for i in self._checked(word):
            out.append(tuple(row[i - 1] for row in elements[prefix].root_matrix))
            prefix = right[prefix][i - 1]
        return tuple(out)

    def inversions(self, w: WeylElement) -> tuple[RootVector, ...]:
        """Positive roots sent to negative roots by ``w``."""
        out = []
        for beta in self._positive_roots:
            img = _mat_vec(w.root_matrix, beta)
            if all(c <= 0 for c in img):
                out.append(beta)
        return tuple(out)

    # -- parabolic structure -------------------------------------------------

    def _check_parabolic(self, subset: Iterable[int]) -> tuple[int, ...]:
        J = tuple(sorted(set(subset)))
        for j in J:
            if not 1 <= j <= self.rank:
                raise ValueError(f"parabolic index {j} out of range 1..{self.rank}")
        return J

    def min_coset_reps(self, subset: Iterable[int]) -> tuple[WeylElement, ...]:
        """Minimal-length representatives of the cosets w W_J."""
        J = self._check_parabolic(subset)
        return tuple(
            w
            for w in self._elements
            if not any(self.has_right_descent(w, j) for j in J)
        )

    def coset_factorization(
        self, w: WeylElement, subset: Iterable[int]
    ) -> tuple[WeylElement, WeylElement]:
        """Unique factorization w = u v with u in W^J and v in W_J."""
        J = self._check_parabolic(subset)
        v_word_rev: list[int] = []
        cur = w
        while True:
            j = next((j for j in J if self.has_right_descent(cur, j)), None)
            if j is None:
                break
            v_word_rev.append(j)
            cur = self.multiply_simple(cur, j)
        v = self.element_by_word(tuple(reversed(v_word_rev)))
        return cur, v

    def j_compatible_words(self, subset: Iterable[int]) -> dict[WeylElement, Word]:
        """Reduced words ``I_w = I_u + I_v`` along the W^J x W_J factorization."""
        J = self._check_parabolic(subset)
        out: dict[WeylElement, Word] = {}
        for w in self._elements:
            u, v = self.coset_factorization(w, J)
            word = u.word + v.word
            if not self.is_reduced_word(word, w):
                raise AssertionError("coset factorization produced a bad word")
            out[w] = word
        return out


# ---------------------------------------------------------------------------
# Public, module-level operations
# ---------------------------------------------------------------------------


def build_root_datum(
    spec: str | Mapping,
    lattice: str | None = None,
    max_rank: int = DEFAULT_MAX_RANK,
    max_order: int = DEFAULT_MAX_ORDER,
) -> RootDatum:
    """Build a root datum from a type label or an explicit description.

    ``spec`` is either a label like ``"A2"`` or a mapping with keys
    ``"cartan"`` (list of rows) and optionally ``"lattice"`` and ``"label"``
    (a string); a malformed mapping raises ``ValueError``.

    >>> d = build_root_datum("A2")
    >>> d.order, len(d.positive_roots)
    (6, 3)
    """
    if isinstance(spec, str):
        cartan = named_cartan_matrix(spec)
        label = spec.strip().upper()
        chosen = lattice or SIMPLY_CONNECTED
    elif isinstance(spec, Mapping):
        if "cartan" not in spec:
            raise ValueError("explicit datum requires a 'cartan' key")
        rows = spec["cartan"]
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise ValueError("'cartan' must be a list of rows, each a list of integers")
        cartan = [list(row) for row in rows]
        label = spec.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"'label' must be a string, got {label!r}")
        chosen = lattice or spec.get("lattice", SIMPLY_CONNECTED)
    else:
        raise ValueError(f"cannot build a root datum from {type(spec).__name__}")
    return RootDatum(cartan, lattice=chosen, label=label, max_rank=max_rank, max_order=max_order)

"""Dual classes, structure constants by two routes, Leibniz coefficients.

The dual side pairs functions f = sum_w q_w f_w against Q_W.  Dual basis
classes Z*_{I_w} are supported on {v >= w}; their products expand back in
the same basis with coefficients z^{I_w}_{I_u, I_v}.  The library always
offers two independent routes:

  * oracle route   multiply the classes, then solve the triangular system;
  * formula route  assemble the constant from Leibniz coefficients
                   z^{I}_{E,F} and the evaluation coefficients c.

A discrepancy report collects any disagreement instead of hiding it.  The
demo ends with the Bott-Samelson class zeta_I = Z_{I^rev} . pt_e of the
word I = 121, over the fixed points and in the dual classes.

Run:  python3 demos/04_products_and_leibniz.py
"""

import itertools

from demazure.dual import DualBasis
from demazure.formal import ADDITIVE, MULTIPLICATIVE, Backend, q_equal
from demazure.rootdata import build_root_datum
from demazure.serialize import qelem_to_str, word_to_str
from demazure.twisted import Algebra, BUILTIN_FAMILIES

a2 = build_root_datum("A2")

# ---------------------------------------------------------------------------
# The product table entry Z*_1 Z*_2 under both formal group laws
# ---------------------------------------------------------------------------

for law in (ADDITIVE, MULTIPLICATIVE):
    basis = DualBasis(Algebra(BUILTIN_FAMILIES["x"](Backend(a2, law))))
    u = a2.element_by_word((1,))
    v = a2.element_by_word((2,))
    rows = basis.product_oracle(u, v)
    print(f"Z*_1 Z*_2 under the {law} law:")
    for w in sorted(rows, key=lambda e: e.sort_key()):
        print(f"    Z*_{word_to_str(w.word):<4} {qelem_to_str(rows[w])}")
    # the longest row is the kappa class: absent additively, 1 multiplicatively

# ---------------------------------------------------------------------------
# Formula route == oracle route, everywhere
# ---------------------------------------------------------------------------

basis = DualBasis(Algebra(BUILTIN_FAMILIES["x"](Backend(a2, ADDITIVE))))
report = basis.compare_routes()
print("\nformula route vs oracle route on all A2 pairs:",
      "agree" if report.is_empty else report.to_json())

# ---------------------------------------------------------------------------
# Leibniz coefficients: how Z_I distributes over a product
# ---------------------------------------------------------------------------

algebra = basis.algebra
word = (1, 2, 1)
positions = range(1, len(word) + 1)
print("\nnonzero Leibniz coefficients z^(121)_(E,F):")
for e_size in range(len(word) + 1):
    for e_set in itertools.combinations(positions, e_size):
        for f_size in range(len(word) + 1):
            for f_set in itertools.combinations(positions, f_size):
                coeff = algebra.leibniz_coefficient(word, frozenset(e_set), frozenset(f_set))
                if not coeff.is_zero():
                    print(f"    E={set(e_set) or '{}'}  F={set(f_set) or '{}'}  "
                          f"{qelem_to_str(coeff)}")

# the full-set coefficients have a closed product form over inversion roots
print("\nclosed form z^(121)_([3],E) == two-sided expansion, all E:",
      all(
          q_equal(
              algebra.billey_closed_form(word, frozenset(e_set)),
              algebra.leibniz_coefficient(word, frozenset(positions), frozenset(e_set)),
          )
          for size in range(len(word) + 1)
          for e_set in itertools.combinations(positions, size)
      ))

# ---------------------------------------------------------------------------
# Word independence: braid-stable families give word-independent constants
# ---------------------------------------------------------------------------

u = a2.element_by_word((1,))
w0 = a2.longest_element
c_121 = basis.structure_constant(u, u, w0, top_word=(1, 2, 1))
c_212 = basis.structure_constant(u, u, w0, top_word=(2, 1, 2))
print("\nz^(121)_(1,1) == z^(212)_(1,1):", q_equal(c_121, c_212))

# ---------------------------------------------------------------------------
# The Bott-Samelson class zeta_I = Z_{I^rev} . pt_e, over the fixed points
# and in the dual classes
# ---------------------------------------------------------------------------

zeta = basis.bott_samelson_class(word)
print("\nzeta_(121) over the fixed points:")
for w in zeta.support():
    print(f"    f_{word_to_str(w.word) or 'e':<4} {qelem_to_str(zeta.coeffs[w])}")
print("zeta_(121) in the dual classes:")
for w, coeff in sorted(basis.expand(zeta).items(), key=lambda kv: kv[0].sort_key()):
    print(f"    Z*_{word_to_str(w.word) or 'e':<4} {qelem_to_str(coeff)}")

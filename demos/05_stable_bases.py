"""Cohomological and K-theoretic stable bases.

The degenerate Hecke family T (additive law, parameter h) produces the
cohomological stable basis; the Hecke family tau (multiplicative law,
parameter v, q = v^2) produces the K-theoretic one.  Each stable basis is a
view of the family's DualBasis, scaled by that basis's scale (the product of
the hat classes over the positive roots).  Both come with:

  * two independent constructions of the classes (closed form vs operator
    route) that must agree,
  * diagonal pairing identities,
  * structure constants by an oracle route and a formula route.

For the cohomological basis the literal closed-form constants carry one
extra factor (the product of the hat classes over all positive roots);
compare_constants surfaces that as an explicit discrepancy report.

Run:  python3 demos/05_stable_bases.py
"""

from demazure.dual import CohStableBasis, DualBasis, KStableBasis
from demazure.formal import ADDITIVE, MULTIPLICATIVE, Backend, QElem, h_var, q_equal, x_class
from demazure.rootdata import build_root_datum
from demazure.serialize import qelem_to_str, word_to_str
from demazure.twisted import Algebra, BUILTIN_FAMILIES

a2 = build_root_datum("A2")

# ---------------------------------------------------------------------------
# Cohomological stable basis
# ---------------------------------------------------------------------------

coh = CohStableBasis(DualBasis(Algebra(BUILTIN_FAMILIES["t"](Backend(a2, ADDITIVE)))))
backend = coh.backend
s1 = a2.element_by_word((1,))
w0 = a2.longest_element

print("stab-_1 expanded over the fixed points:")
for w, coeff in sorted(coh.stab_minus_bullet(s1).coeffs.items(),
                       key=lambda kv: kv[0].sort_key()):
    print(f"    f_{word_to_str(w.word) or 'e':<4} {qelem_to_str(coeff)}")

print("\nclosed form == operator route for every stab-_w:",
      all(coh.stab_minus_bullet(w) == coh.stab_minus(w) for w in a2.elements))

# the oracle-route structure constant highlighted in the product table
value = coh.constants_oracle(s1, s1)[w0]
h = h_var(backend)
al1 = x_class(backend, a2.simple_root(1))
print("\nt^(121)_(1,1) =", qelem_to_str(value))
print("   == h^2 (h + alpha1):",
      q_equal(value, QElem.from_s(h * h * (h + al1))))

# the formula route exceeds the oracle by one hat factor; the report says so
report = coh.compare_constants([(s1, s1)])
hat = QElem.from_s(coh.scale)
print("\ncompare_constants reports", len(report.entries), "locations; each "
      "formula value equals hat_(w0) * oracle value:",
      all(q_equal(e.formula, hat * e.oracle) for e in report.entries))

# ---------------------------------------------------------------------------
# K-theoretic stable basis
# ---------------------------------------------------------------------------

kst = KStableBasis(DualBasis(Algebra(BUILTIN_FAMILIES["tau"](Backend(a2, MULTIPLICATIVE)))))
print("\nK-theory: operator route == closed form for every stab-_w:",
      all(kst.stab_minus(w) == kst.stab_minus_bullet(w) for w in a2.elements))
print("K-theory: formula route == oracle route on the full grid:",
      kst.compare_constants().is_empty)

rows = kst.constants_oracle(s1, s1)
print("\np^(.)_(1,1) rows (K-theoretic constants):")
for w in sorted(rows, key=lambda e: e.sort_key()):
    if not rows[w].is_zero():
        print(f"    w={word_to_str(w.word):<4} {qelem_to_str(rows[w])[:72]}")

"""Restrictions, the conjugation matrix identity, parabolic products, CLI.

The restriction coefficient b_{v, I_w} evaluates the dual class Z*_{I_w}
at the fixed point v.  Collected into matrices these coefficients satisfy
p_w . b = b . b_w, conjugating the product matrix into diagonal form.
J-compatible words keep products of parabolic classes inside the minimal
coset representatives.  Everything here is also reachable from the
``demazure`` command-line tool.

Run:  python3 demos/06_restrictions_parabolic_cli.py
"""

from demazure.cli import main
from demazure.dual import DualBasis
from demazure.formal import ADDITIVE, Backend, q_equal
from demazure.rootdata import build_root_datum
from demazure.serialize import qelem_to_str, word_to_str
from demazure.twisted import Algebra, BUILTIN_FAMILIES

a2 = build_root_datum("A2")
basis = DualBasis(Algebra(BUILTIN_FAMILIES["x"](Backend(a2, ADDITIVE))))

# ---------------------------------------------------------------------------
# Restriction coefficients, two ways
# ---------------------------------------------------------------------------

v = a2.longest_element
w = a2.element_by_word((1,))
via_expansion = basis.restriction(v, w)
via_closed_form = basis.restriction_via_billey(v, w)
print("b_(121), I_(1) via expansion  :", qelem_to_str(via_expansion))
print("b_(121), I_(1) via closed form:", qelem_to_str(via_closed_form))
print("routes agree:", q_equal(via_expansion, via_closed_form))

# vanishing pattern: restrictions vanish unless w <= v
print("\nnonzero restrictions b_(v, I_w) (rows v, columns w):")
order = sorted(a2.elements, key=lambda e: e.sort_key())
header = "        " + " ".join(f"{word_to_str(w.word) or 'e':>5}" for w in order)
print(header)
for v in order:
    marks = " ".join(
        f"{'  *  ' if not basis.restriction(v, w).is_zero() else '  .  '}"
        for w in order
    )
    print(f"  v={word_to_str(v.word) or 'e':<4} {marks}")

# ---------------------------------------------------------------------------
# The conjugation identity p_w b = b b_w, checked entrywise
# ---------------------------------------------------------------------------

ok = all(basis.check_restriction_matrices(w).is_empty for w in a2.elements)
print("\np_w b == b b_w for every w on A2:", ok)

# ---------------------------------------------------------------------------
# Parabolic products stay inside the minimal coset representatives
# ---------------------------------------------------------------------------

for subset in ((1,), (2,)):
    reps = set(a2.min_coset_reps(subset))
    table = basis.parabolic_table(subset)
    confined = all(
        u in reps and v in reps and set(row) <= reps for (u, v), row in table.items()
    )
    print(f"J={set(subset)}: {sum(map(len, table.values()))} products, confined to W^J:",
          confined)

# ---------------------------------------------------------------------------
# The same computations through the command-line interface
# ---------------------------------------------------------------------------

print("\n$ demazure restrict --type A2 --family x --w 1 --v 121")
main(["restrict", "--type", "A2", "--family", "x", "--w", "1", "--v", "121"])

print("\n$ demazure mult --type A2 --fgl multiplicative --family x --u 1 --v 2")
main(["mult", "--type", "A2", "--fgl", "multiplicative",
      "--family", "x", "--u", "1", "--v", "2"])

print("\n$ demazure verify --suite paper-examples --type A2")
main(["verify", "--suite", "paper-examples", "--type", "A2"])

"""Operator families in the twisted group algebra.

Elements of the twisted group algebra Q_W are finite sums  sum_w q_w d_w
with localized coefficients q_w; multiplication twists the coefficients
by the Weyl action.  An operator family assigns to every simple root an
element  Z_i = a(alpha_i) d_{s_i} + b(alpha_i),  and words in the Z_i
generate everything else.  Built-in families (the entries of
twisted.BUILTIN_FAMILIES, each with the laws it is defined on):

    x     Demazure-type      X_i = (1/x_i) (d_i - 1)         both laws
    y     opposite variant   Y_i = (1/x_{-i}) (d_i - 1) ...  both laws
    t     degenerate Hecke   T_i with T_i^2 = 1              additive + h
    tau   Hecke/K-theoretic  tau_i^2 = (q - 1) tau_i + q     multiplicative + v
    sigma a localized preset with (1 + alpha) denominators   additive

Run:  python3 demos/03_operator_families.py
"""

from demazure.formal import ADDITIVE, Backend, QElem
from demazure.rootdata import build_root_datum
from demazure.serialize import qelem_to_str, word_to_str
from demazure.twisted import Algebra, BUILTIN_FAMILIES, custom_family

a2 = build_root_datum("A2")


def show(z, title):
    print(title)
    for w, coeff in sorted(z.coeffs.items(), key=lambda kv: kv[0].sort_key()):
        print(f"    d_{word_to_str(w.word) or 'e':<4} {qelem_to_str(coeff)}")


# ---------------------------------------------------------------------------
# The x family, additive law: divided differences
# ---------------------------------------------------------------------------

algebra = Algebra(BUILTIN_FAMILIES["x"](Backend(a2, ADDITIVE)))
X1 = algebra.simple_element(1)
show(X1, "X_1 as an element of Q_W:")
print("\nX_1 X_1 == kappa_1 X_1 == 0 under the additive law:",
      (X1 * X1).is_zero())
show(algebra.compose_word((1, 2, 1)), "\nX_121 = X_1 X_2 X_1:")

# braid stability: the x family satisfies the braid relation on A2
print("\nX_1 X_2 X_1 == X_2 X_1 X_2 :",
      algebra.compose_word((1, 2, 1)) == algebra.compose_word((2, 1, 2)))

# ---------------------------------------------------------------------------
# Relations hold per family; verify_relations reports each one
# ---------------------------------------------------------------------------

for name, entry in BUILTIN_FAMILIES.items():
    law = entry.laws[0]  # each family's default law
    family = entry(Backend(a2, law))
    checks = Algebra(family).verify_relations()
    status = "all pass" if all(c["passed"] for c in checks) else "FAILED"
    print(f"relations for {name:<5} ({law}): {len(checks)} checks, {status}")

# ---------------------------------------------------------------------------
# Operators act on the localized ring; T_w restricts classes pointwise
# ---------------------------------------------------------------------------

backend = algebra.backend
from demazure.formal import x_class  # noqa: E402  (narrative order)

p = QElem.from_s(x_class(backend, a2.simple_root(1)))
print("\nX_1 . x_alpha1 =", qelem_to_str(X1.act(p)), "   (x_alpha1 is (2,-1))")

# ---------------------------------------------------------------------------
# Custom families: supply a, b, and the exact reciprocal of b
# ---------------------------------------------------------------------------

sigma = BUILTIN_FAMILIES["sigma"](Backend(a2, ADDITIVE))
show(Algebra(sigma).simple_element(1), "\nsigma_1, the localized preset family:")

# custom_family validates b * b_inv == 1 and the defining relations;
# a wrong reciprocal is rejected immediately.
try:
    custom_family(
        Backend(a2, ADDITIVE),
        "broken",
        sigma.a,
        sigma.b,
        lambda weight: QElem.from_int(backend, 1),
    )
except ValueError as exc:
    print("\nbroken custom family rejected:", exc)

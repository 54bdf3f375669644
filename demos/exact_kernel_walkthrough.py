"""The exact arithmetic stack, from scalars to Hopf structure.

Everything in this package rests on three scalar variants that never
round: rationals, cyclotomic numbers, and rational functions in one
variable.  On top of them sits generic linear algebra whose negative
answers carry certificates, and on top of that the group algebra with
its comultiplication, counit and antipode.  This script exercises each
layer once.
"""

from fractions import Fraction

from peterweyl.exact.linalg import Infeasible, Matrix, nullspace, solve_linear
from peterweyl.exact.scalars import Cyclotomic, RatFun
from peterweyl.groups import symmetric
from peterweyl.hopf import (
    TensorElement,
    AlgebraElement,
    center_subspace,
    class_indicator_subspace,
    multiply_adjacent,
    apply_antipode,
)


def main() -> None:
    print("== scalars that never round ==")
    print()
    z = Cyclotomic.zeta(5)
    total = sum((Cyclotomic.zeta(5, k) for k in range(1, 5)), Cyclotomic.of(5, 1))
    print("for zeta a primitive fifth root of unity:")
    print("  1 + zeta + ... + zeta^4 == 0:", total == Cyclotomic.of(5, 0))
    print("  zeta^5 == 1:                 ", z ** 5 == Cyclotomic.of(5, 1))
    assert total == Cyclotomic.of(5, 0)
    assert z ** 5 == Cyclotomic.of(5, 1)

    v = RatFun.gen()
    ratio = (v ** 4 - 1) / (v ** 2 - 1)
    print("for v the rational function variable:")
    print("  (v^4 - 1)/(v^2 - 1) == v^2 + 1:", ratio == v ** 2 + 1,
          " (cancellation happens symbolically)")
    assert ratio == v ** 2 + 1
    print()

    print("== linear algebra with receipts ==")
    print()
    third = Fraction(1, 3)
    A = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    print("rank of a 3x3 with a repeated row:", A.rank())
    sol = solve_linear(A, [third, 2 * third, 0])
    assert not isinstance(sol, Infeasible)
    print("consistent system: particular solution found,",
          "nullspace dimension", len(nullspace(A.rows, 3)))
    res = solve_linear(A, [1, 0, 0])
    print("inconsistent system:", type(res).__name__,
          "with certificate [%s]" % ", ".join(str(c) for c in res.certificate))
    # the certificate row annihilates A but pairs nontrivially with b
    assert isinstance(res, Infeasible)
    row = res.certificate
    for j in range(3):
        assert sum(row[i] * A[i, j] for i in range(3)) == 0
    assert sum(row[i] * [1, 0, 0][i] for i in range(3)) != 0
    print("certificate checked: it annihilates every column of A and")
    print("hits the right-hand side, so infeasibility is unconditional.")
    print()

    print("== the group algebra as a Hopf algebra ==")
    print()
    grp = symmetric(3)
    x = AlgebraElement.basis(grp, 1)
    print("a basis element x:", x)
    print("coproduct:        ", x.delta())
    print("antipode S(x):    ", x.antipode())
    print("counit eps(x):    ", x.counit())
    print()
    d = x.delta()
    axiom = multiply_adjacent(apply_antipode(d, 0), 0)
    print("antipode axiom, multiply S(x) against the coproduct and land")
    print("on eps(x) times the unit:", axiom == TensorElement.unit(grp, 1))
    assert axiom == TensorElement.unit(grp, 1)
    print()

    print("== the center, two ways ==")
    print()
    cs = center_subspace(grp)
    ci = class_indicator_subspace(grp)
    print("center of the group algebra:  dimension", cs.dim)
    print("span of class indicators:     dimension", ci.dim)
    same = cs.contains_subspace(ci) and ci.contains_subspace(cs)
    print("the two subspaces coincide:  ", same)
    assert same
    print()
    print("Class sums and class indicator functions span the same")
    print("3-dimensional space, one conjugacy class each; this is the")
    print("hinge on which the transfer map's centrality checks turn.")


if __name__ == "__main__":
    main()

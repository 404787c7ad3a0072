# Enumerating the quasi-regular compact families in exact arithmetic.
#
# A family is determined by a rational root sum S in (1/4, 1/3) with
# S(1-3S) a rational square; the integer orbit data (q, sigma) at each
# turning value is the cleared ratio 6D / ((C+m)(1 - 6D)), and the
# group diagram is validated by finite computation in the torus.

from fractions import Fraction as F

from esasaki.moduli import (
    build_diagram,
    classify_A,
    enumerate_rational_families,
)

families = enumerate_rational_families(40)
print(f"families with root-sum denominator <= 40: {len(families)}\n")
header = ("S", "D-", "D+", "A", "(q-, s-)", "(q+, s+)", "pi1")
print(("{:>8} " * len(header)).format(*header))
for fam in families:
    diagram = build_diagram(fam)
    print(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}".format(
            str(fam.S),
            str(fam.delta_minus),
            str(fam.delta_plus),
            str(fam.A),
            f"({fam.minus.q},{fam.minus.sigma})",
            f"({fam.plus.q},{fam.plus.sigma})",
            diagram.pi1_order,
        )
    )

print("\nclassification of sample levels (C = 6, m = 0):")
for A in (F(0), F(-9, 2197), F(-1, 108), F(1, 10)):
    verdict = classify_A(A, F(6), 0)
    print(f"  A = {str(A):>8}: {verdict.branch:<22} {verdict.reason}")

fam = families[1]  # the (1/13, 3/13) family
diagram = build_diagram(fam)
print(f"\ngroup diagram of the S = {fam.S} family:")
# K is kept as integer numerators over N: (a, b) stands for the phases
# (a/N, b/N), and K is (0, d i) and (N/2, r + d i), 0 <= i < N/d
generators = tuple((F(a, diagram.N), F(b, diagram.N)) for a, b in diagram.k_generators)
print(f"  K has order {diagram.k_order}, generated by {generators}")
print(f"  stabilizer intersection orders: {diagram.intersection_orders}")
print(f"  fundamental group order: {diagram.pi1_order}")

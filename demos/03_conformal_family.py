# The conformal family: d(h^2)/dt = a, d(ah)/dt = h - 6h^3.
#
# A = 4h^6 - h^4 + (ah)^2 is conserved; for -1/108 < A < 0 the height h
# oscillates between the square roots of the two positive solutions of
# A + D^2 - 4D^3 = 0, and the flow meets a special orbit at each end.

import math

from esasaki.evolution import CaseIIState, evolve_case_ii
from esasaki.moduli import cubic_roots

A = -9 / 2197
roots = [float(r) for r, _ in cubic_roots(A)]
print("turning heights for A = -9/2197:", [math.sqrt(r) for r in roots])
print("  (exact squares 1/13 and 3/13:", roots, ")")

h0 = 0.3
a0 = math.sqrt(A + h0**4 - 4 * h0**6) / h0
flow = evolve_case_ii(CaseIIState(h0, a0, C=6.0, m=0), (0.0, 2.0), 1e-4)

print(f"\nflow from h0 = {h0}: {len(flow.times)} samples")
print(f"  stopped: {flow.stopped_reason} at t = {flow.boundary_time:.6f}")
# the coefficients hold h as the e2 coefficient of eta2 (column 9)
print(f"  final h = {flow.coefficients[-1, 9]:.10f}  (upper turning {math.sqrt(3/13):.10f})")
print(f"  conserved-quantity drift: {flow.drift['A'].max():.2e}")
print(f"  structure-equation residuals along the flow: {flow.residuals.max():.2e}")

# the stationary solution sits at the minimum of the level function
st = CaseIIState(6**-0.5, 0.0)
print(f"\nstationary point h = 6^-1/2: A = {st.A:.12f} = -1/108 = {-1/108:.12f}")
still = evolve_case_ii(st, (0.0, 1.0), 1e-3)
print("  height change over unit time:", abs(still.coefficients[-1, 9] - st.h))

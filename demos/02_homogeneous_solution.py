# The homogeneous solution: a left-invariant coframe solving the
# structure equations, its evolution, and the closed-form family it
# traces out (the rotating solution on the group).

import math

import numpy as np

from esasaki.evolution import closed_form_case_i, evolve_general, fit_case_i, general_rhs
from esasaki.structures import IdStructure, residual_es, residual_hypo

s6 = 1.0 / math.sqrt(6.0)
eta = IdStructure(
    ((1 / 3, 0, 0, 1), (0, 0, 0, 1), (0, s6, 0, 0), (0, 0, s6, 0)),
    m=0,
)
print("structure-equation residuals:", residual_hypo(eta))

print("coframe determinant:", np.linalg.det(eta.matrix))

# with its rate from the flow equations, the data gives the structure
# forms alpha = eta0, omega1 = eta23 + eta1 ^ dt, ... of the 5-manifold;
# residual_es measures dalpha = -2 omega1, domega2 = 3 alpha ^ omega3 and
# domega3 = -3 alpha ^ omega2 there
y = eta.matrix.reshape(-1)
rate, _ = general_rhs(y, eta.m)
print("Einstein-Sasaki residuals:", residual_es(eta.matrix[None], rate.reshape(1, 4, 4), eta.m)[0])

# the flow through this data is the rotating closed form with amplitude
# k and a phase; both are fixed by the conserved combination
k, phase = fit_case_i(eta)
print(f"\nfitted amplitude k = {k:.12f}  (= sqrt(5/3) = {math.sqrt(5/3):.12f})")

flow = evolve_general(eta, (0.0, 1.0), 1e-3, record_every=100)
# each row of flow.coefficients is the 4x4 matrix of eta0..eta3 over e1..e4
worst = 0.0
for t, eta_t in zip(flow.times, flow.coefficients.reshape(-1, 4, 4)):
    reference = closed_form_case_i(k, 0, float(t) + phase)
    worst = max(worst, float(np.abs(eta_t - reference.matrix).max()))
print(f"integrated flow vs closed form over unit time: max deviation {worst:.2e}")
# consistency: the defect |A x - b| of the rates x the flow used, in its
# overdetermined rate system over e1..e4
print(f"consistency defect of the rates along the flow: {flow.consistency.max():.2e}")
rates = np.array([general_rhs(y, 0)[0] for y in flow.coefficients]).reshape(-1, 4, 4)
es = residual_es(flow.coefficients.reshape(-1, 4, 4), rates, 0)
print(f"Einstein-Sasaki residuals along the flow: max {es.max():.2e}")

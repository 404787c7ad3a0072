# No flow of the five-parameter family extends to a compact space.
#
# The flow is marched once to each end of its maximal interval; at each
# end the extension conditions of the matching special-orbit branch are
# measured on short legs off that march.  The component V = sqrt((h-k)^2 + (b+c)^2)/2 must vanish
# smoothly at a circle-type end (it refuses: its radial log-derivative
# comes out negative, or V fails to vanish at all), and at a round-type
# end the limit of r (dV/dr)/V is -3 where nonnegativity is required.

import json

from esasaki.boundary import reject_case_iii
from esasaki.evolution import CaseIIIState, evolve_case_iii

state0 = CaseIIIState(h=0.4, k=0.3, b=0.0, c=0.1, a=0.2)
print(f"initial data: {state0}")
print(f"  Delta = {state0.delta:.4f}, lambda = w/u = {state0.lam:.6f}, mu = z/v = {state0.mu:.6f}")

flow = evolve_case_iii(state0, (0.0, 2.0), 1e-3)
print(f"\nforward flow: stopped '{flow.stopped_reason}' at t = {flow.boundary_time:.4f}")
print(f"  conserved-ratio drift: lambda {max(flow.drift['lambda']):.2e}, mu {max(flow.drift['mu']):.2e}")

report = reject_case_iii(state0, 1e-3)
print(f"\nverdict: {report.branch} (extendable: {report.passed})")
print(f"obstructions: {report.failing()}")
for tag, end in report.end_reports.items():
    print(f"\n{tag} end -- {end.notes}")
    for cond in end.conditions:
        print(f"  {cond.name:<42} measured {cond.measured:+.4e}  pass {cond.passed}")

print("\nfull report as JSON:")
print(json.dumps(report.to_json_dict(), indent=1)[:600], "...")

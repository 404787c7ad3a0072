# Numerical verification of the Einstein condition Ric = 4 g for the
# explicit five-coordinate metric, from the metric and its first and
# second derivatives by fourth-order finite differences, plus the change
# of variables tying the coordinate metric to the invariant-frame metric
# of the conformal family.

import numpy as np

from esasaki.geometry import (
    case_ii_frame_metric_in_chart,
    ricci_fd_many,
    sample_interior_points,
    wq,
    ypq_chart,
)

A = -9 / 2197
chart = ypq_chart(A)
print("admissible y-interval:", chart.box[2])
print("wq at the endpoints:", wq(A, 1 - 6 / 13), wq(A, 1 - 18 / 13))

print("\nEinstein residuals |Ric - 4g|/|g| at sampled interior points:")
for point in sample_interior_points(chart, 5, seed=0):
    report = ricci_fd_many(chart, [point], fd_step=1e-3)[0]
    print(f"  y = {point[2]:+.3f}, theta = {point[0]:.3f}:  {report.einstein_residual:.3e}")

# the level A = 0 is the round five-sphere: constant curvature 1
sphere = ypq_chart(0.0)
report = ricci_fd_many(sphere, [(1.3, 0.7, 0.1, 0.4, 0.9)], fd_step=1e-3)[0]
print(f"\nA = 0 sectional curvatures: mean {np.mean(report.sectional_values):.9f}, "
      f"spread {report.sectional_spread:.2e}")

# convergence order: halving the stencil divides the residual by ~16
point = (1.2, 0.5, 0.05, 0.3, 0.8)
coarse = ricci_fd_many(chart, [point], fd_step=2e-3)[0].einstein_residual
fine = ricci_fd_many(chart, [point], fd_step=1e-3)[0].einstein_residual
print(f"\nresidual at step 2e-3: {coarse:.3e}; at 1e-3: {fine:.3e} (ratio {coarse/fine:.1f})")

# frame/chart consistency at one matched point
push = case_ii_frame_metric_in_chart(A, 6.0, point)
direct = chart.metric(point)
print(f"\nframe metric vs chart metric, entrywise: {np.abs(push - direct).max():.2e}")

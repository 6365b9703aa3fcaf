"""Projective flattening: deform a structured connection to a flat one.

The pipeline extracts the covector source from the Ricci split, checks the
curvature-structure preconditions, transports the covector equation, and
reports the curvature of the deformed connection from the curvature formula
with exact derivatives (du/dy from the covector equation itself), next to
the gap between the covector transported along a straight and a corner path.
"""

import numpy as np

from affsym import CanonicalSpec, build_system, deformed_curvature, projective_flatten, sample_points
from affsym.canonical import deformation_from_covector

# an intermediate geometry flattens
inter = build_system(CanonicalSpec("intermediate_17_19", n=2, a=1.0, m=1, u=("y1",)))
res = projective_flatten(inter.conn, np.zeros(2), np.zeros(2))
print("intermediate geometry")
for key, rep in res.report.items():
    print(f"  {key:28s}: {rep.max_abs:.3e}")
print("  transported covector at (0.2, 0.3):", res.u([0.2, 0.3]))

# the constant-curvature space is projectively flat as well (a classical
# fact); the pipeline measures it rather than assuming either outcome
cc = build_system(CanonicalSpec("constcurv_22_13", n=2, a=1.0))
res2 = projective_flatten(cc.conn, np.zeros(2), np.zeros(2))
print("\nconstant-curvature geometry")
for key, rep in res2.report.items():
    print(f"  {key:28s}: {rep.max_abs:.3e}")

# the symbolic counterpart for constant curvature: the explicit deformation
# tensor flattens the connection identically
n = 3
cc3 = build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0))
T = deformation_from_covector(n, (1, 1, 1))
rbar = deformed_curvature(cc3.conn, T)
print("\nsymbolic deformation of the n=3 background:")
print("  |curvature after deformation| =", np.max(np.abs(rbar.evaluate_many(sample_points(n, 15)))))

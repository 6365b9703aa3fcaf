"""Point-symmetry verification, flows, and dimension bounds.

Checks the determining equations for candidate fields, integrates a symmetry
flow, and compares the pointwise dimension bound across the degeneration
cases: the counts 12 / 9 / 6 for n = 3 are the flat, intermediate, and
constant-curvature maxima.
"""

import numpy as np

from affsym import (
    CanonicalSpec,
    Connection,
    DiffusionSystem,
    VectorField,
    build_system,
    determining_residuals,
    flat_symmetry_basis,
    flow,
    invariance_suite,
    linearization,
    pointwise_symmetry_bound,
    sample_points,
    scalar_operator,
)

# -- the flat maximal case ------------------------------------------------

n = 3
flat = DiffusionSystem(n, scalar_operator(n, 2.0), Connection.zeros(n))
basis = flat_symmetry_basis(n)
worst = 0.0
for eta in basis:
    res = determining_residuals(flat, eta)
    worst = max(worst, res["res_A"].max_abs, res["res_Gamma"].max_abs)
print(f"flat system: {len(basis)} basis fields, worst residual {worst:.1e}")
p0 = sample_points(n, 1)[0]
print("pointwise bound (depth 2):", pointwise_symmetry_bound(flat, p0, 2), "= n(n+1)")

# -- curved fixtures -------------------------------------------------------

cc = build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))
inter = build_system(CanonicalSpec("intermediate_17_19", n=3, a=1.0, m=1, u=("1",)))
print("constant curvature bound (depth 1):", pointwise_symmetry_bound(cc, p0, 1))
print("intermediate bound (depth 2):      ", pointwise_symmetry_bound(inter, p0, 2))

# a rotation is a symmetry of the constant-curvature system; a translation
# is not
rot = VectorField.from_strings(3, ["-y2", "y1", "0"])
trans = VectorField.from_strings(3, ["1", "0", "0"])
for name, eta in (("rotation", rot), ("translation", trans)):
    res = determining_residuals(cc, eta)
    print(f"{name:12s} res_A={res['res_A'].max_abs:.2e} res_Gamma={res['res_Gamma'].max_abs:.2e}")

# the geometric consequences: every invariant of the geometry is dragged
# along the verified symmetry, and so is the connection: lie_gamma is
# max |L_eta Gamma|, which also measures the commutator of L_eta with nabla,
# since (L_eta nabla - nabla L_eta) W = (L_eta Gamma) . W
suite = invariance_suite(cc, rot)
for key, rep in suite.items():
    print(f"  L_eta {key:18s}: {rep.max_abs:.2e}")

# -- flows -----------------------------------------------------------------

p = np.array([0.4, -0.1, 0.2])
q = flow(rot, p, 2 * np.pi)
print("\nrotation flow after a full turn, |q - p| =", np.max(np.abs(q - p)))
lin = linearization(rot, np.zeros(3))
print("linearization at the origin:\n", lin.F)

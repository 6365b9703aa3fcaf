"""Chart moves for the metamorphic tests: point maps with their exact
inverses, a system and its points carried through one, and a vector field
pushed forward.

The paper's invariants (the degeneration rank m, the pointwise bounds,
the acceptance of a symmetry, transport of the covector system) do not
depend on the chart.  A test moves its system by one of these maps and
asserts that the answer moves with it: by its tensor type, or not at all.

Each map is built from the smart constructors, as the strings that spell
it parse: ``shear(2, 0, 1, 0.2)`` gives the nodes of
``PointMap.from_strings(2, ["y1 + 0.2*y2^2", "y2"], ["y1 - 0.2*y2^2",
"y2"])``, so trees built on a moved system keep their digests.

``MOVES`` holds the moves under which every invariant holds today, each a
function of the dimension n.  To add one, add a row here; the
chart-invariance test (``tests/test_charts.py``) runs every row on each of
its systems.  The scalings stop at 2^-6 and 2^6 because beyond them the
margins are thin: 2^-7 and 2^10 hold too, but at 2^-7 the pushed-forward
rotation on constant curvature at n = 4 reads half its tolerance (1/15 at
2^-6), and 2^10 is a factor 4 below 2^12, where the intermediate system
at n = 2 overcounts its depth-2 bound.  From 2^-8 on a pushed-forward
symmetry is refused, and from 2^12 on a bound is too high (ROADMAP items
17 and 1); a change that mends one of those adds the moves it mends.
"""

import numpy as np

from affsym.expr import add, const, coord, mul, powi, sub, to_string
from affsym.geometry import transform_system
from affsym.liefn import VectorField
from affsym.tensor import PointMap, pushforward


def _coords(n):
    return [coord(i + 1) for i in range(n)]


def scale(n, k):
    """y -> 2^k*y on every axis, exact in floats."""
    y = _coords(n)
    return PointMap(n, [mul(const(2.0**k), v) for v in y], [mul(const(2.0**-k), v) for v in y])


def permute(n, perm):
    """ytilde^i = y^perm[i] (perm 0-based)."""
    y = _coords(n)
    inverse = list(y)
    for i, j in enumerate(perm):
        inverse[j] = y[i]
    return PointMap(n, [y[j] for j in perm], inverse)


def shear(n, a, b, c, e=0.0):
    """y_a -> y_a + c*y_b^2 + e*y_b, inverse y_a -> y_a - (c*y_b^2 + e*y_b)
    (a, b 0-based); with c = 0 the linear shear y_a + e*y_b."""
    y = _coords(n)
    term = add(mul(const(c), powi(y[b], 2)), mul(const(e), y[b]))
    forward, inverse = list(y), list(y)
    forward[a], inverse[a] = add(y[a], term), sub(y[a], term)
    return PointMap(n, forward, inverse)


def seeded_shear(n, pair, rng):
    """shear(n, *pair, c, e) with |c| in [0.1, 0.3) of either sign and e in
    [-0.2, 0.2), drawn from rng in that order."""
    c = float(rng.uniform(0.1, 0.3) * rng.choice((-1.0, 1.0)))
    e = float(rng.uniform(-0.2, 0.2))
    return shear(n, *pair, c, e)


def move(sysd, pm, pts):
    """The system in the new chart and the images of its points."""
    return transform_system(sysd, pm), pm.apply(pts)


def pushed(eta, pm):
    """The vector field eta in the new chart."""
    return VectorField(eta.n, list(pushforward(eta.to_tensor(), pm).comps))


def document(sysd):
    """A's and Gamma's entries as a point-mapped document prints them
    (to_string spells out each shared subtree at every use), as the dict
    ``SystemDocument.from_dict`` reads."""
    n = sysd.n
    text = np.vectorize(to_string, otypes=[object])
    gamma = text(sysd.conn.gamma).tolist()
    return {"n": n, "A": text(sysd.A.comps).tolist(), "Gamma": {str(k + 1): gamma[k] for k in range(n)}}


MOVES = {
    **{f"scale_2^{k}": (lambda n, k=k: scale(n, k)) for k in (-6, -3, 3, 6)},
    "cyclic": lambda n: permute(n, [*range(1, n), 0]),
    "shear_linear": lambda n: shear(n, 0, 1, 0.0, 0.3),
    "shear_quadratic": lambda n: shear(n, 0, 1, 0.2),
}

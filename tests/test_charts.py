"""The paper's invariants in any chart, tested metamorphically: each system
is moved by every move of ``charts.MOVES`` and evaluated at the
pushed-forward points, where the degeneration rank m, the pointwise bounds
at depths 0 to 2 and the verdicts on a pushed-forward rotation and
translation must be the unmoved ones, and transport of the covector system
must commute with the move."""

import json
import os

import numpy as np
import pytest

from affsym.canonical import CanonicalSpec, build_system
from affsym.cli import SystemDocument
from affsym.liefn import VectorField
from affsym.pfaff import named_system, transport_to
from affsym.symmetry import check_symmetry, classify, pointwise_symmetry_bounds
from affsym.tensor import TensorField
from affsym.util import sample_points

import charts
from exact import exact_bounds

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

SPECS = {
    **{
        f"{kind}_n{n}": CanonicalSpec(kind, n=n, **kw)
        for n in (2, 3, 4)
        for kind, kw in (
            ("maximal_7_11", {}),
            ("intermediate_17_19", {"m": 1, "u": ("y1",)}),
            ("constcurv_22_13", {}),
        )
    },
    "intermediate_17_19_n4_m2": CanonicalSpec("intermediate_17_19", n=4, m=2, u=("y1", "y2")),
    "constcurv_2d_22_14_b0.5": CanonicalSpec("constcurv_2d_22_14", n=2, b=0.5),
    "constcurv_22_13_n3_signed": CanonicalSpec("constcurv_22_13", n=3, epsilons=(1, -1, 1)),
    "intermediate_17_19_n3_m2": CanonicalSpec("intermediate_17_19", n=3, m=2, u=("y1", "y2^2")),
}


def _fixtures():
    """Every fixture of dimension n >= 2."""
    names = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fp:
            doc = json.load(fp)
        if doc.get("n", doc.get("canonical", {}).get("n")) >= 2:
            names.append(name)
    return names


SYSTEMS = _fixtures() + sorted(SPECS)
# coefficients with a sqrt, which exact_bounds cannot walk
NOT_RATIONAL = {"constcurv_2d.json", "constcurv_2d_22_14_b0.5"}
# where the covector system's transport is compared across charts
TRANSPORTED = {"constcurv_22_13_n2", "constcurv_22_13_n3"}


def load_system(name):
    """A fixture's system, or the canonical system of SPECS[name]."""
    if name in SPECS:
        return build_system(SPECS[name])
    return SystemDocument.load(os.path.join(FIXTURES, name)).to_system()


def _fields(n):
    """The rotation (-y2, y1, 0, ...) and the translation e1."""
    zeros = ["0"] * (n - 2)
    return VectorField.from_strings(n, ["-y2", "y1", *zeros]), VectorField.from_strings(n, ["1", "0", *zeros])


def _answers(sysd, pts, fields):
    """m over pts, the bounds at pts[0] and the fields' verdicts at pts."""
    verdicts = [check_symmetry(sysd, eta, pts)["accepted"] for eta in fields]
    return classify(sysd.conn, pts).m, pointwise_symmetry_bounds(sysd, pts[0]), verdicts


def _covector(sysd, origin, end):
    """The covector system's U transported from origin to end."""
    return transport_to(named_system("covector_14", conn=sysd.conn, p0=origin), end)


@pytest.mark.parametrize("name", SYSTEMS)
def test_the_invariants_hold_in_every_chart(name):
    sysd = load_system(name)
    n = sysd.n
    pts = sample_points(n, 20)
    fields = _fields(n)
    want = _answers(sysd, pts, fields)
    if name not in NOT_RATIONAL and n <= 3:
        assert want[1] == exact_bounds(sysd, pts[0])
    origin = np.zeros(n)
    u = _covector(sysd, origin, pts[0]) if name in TRANSPORTED else None
    for move, make in charts.MOVES.items():
        pm = make(n)
        moved, moved_pts = charts.move(sysd, pm, pts)
        assert _answers(moved, moved_pts, [charts.pushed(eta, pm) for eta in fields]) == want, move
        if u is not None:
            # U is a covector: in the new chart it is S^T U, S = dy/dytilde
            s = TensorField(n, 1, 1, pm.jac_inverse()).evaluate(moved_pts[0])
            got = _covector(moved, pm.apply(origin), moved_pts[0])
            assert np.max(np.abs(got - s.T @ u)) <= 1e-7 * np.max(np.abs(s.T @ u)), move

"""The benchmark's tracer (perfbench/instrument.py) patches affsym functions
by name and reads the roots passed to the evaluator.  Installing it here makes
a renamed or removed hook fail the tests rather than the benchmark run."""

import importlib.util
import os

import numpy as np

from affsym import canonical, pdesim, pfaff
from affsym.geometry import Connection
from affsym.pfaff import PfaffProblem

INSTRUMENT = os.path.join(os.path.dirname(__file__), "..", "perfbench", "instrument.py")


def load_instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_patches_counts_and_restores():
    inst = load_instrument()
    originals = (Connection.__dict__["evaluate_many"], PfaffProblem.__dict__["rhs_values"])
    tracer = inst.Tracer(timing=False, collect_roots=True)
    tracer.install()
    try:
        sysd = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=2))
        # build_system walks nothing; a library system that checks its
        # Gamma's symmetry reaches Connection.evaluate_many
        pdesim.heisenberg_system()
        prob = pfaff.named_system("covector_14", conn=sysd.conn)
        pfaff.transport_to(prob, [0.05, -0.05])
        grid = pdesim.make_grid([np.sin, np.cos], 8, 2 * np.pi)
        pdesim.evolve(sysd, grid, 1e-4, 1)
    finally:
        tracer.uninstall()
    for name in (
        "pfaff.build",
        "pfaff.rhs",
        "pfaff.solver",
        "geometry.connection_evaluate",
        "pdesim.evolve",
        "pdesim.coeff",
        "expr.eval",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["pfaff.solver.nfev"] >= tracer.calls["pfaff.rhs"] > 0
    identity, unique = inst.dag_sizes(tracer.take_roots())
    assert 0 < unique <= identity
    assert (Connection.__dict__["evaluate_many"], PfaffProblem.__dict__["rhs_values"]) == originals
    assert pfaff.solve_ivp.__module__ == "affsym.ode"

"""The benchmark's workloads: seeded inputs, operations and their oracles.

A workload hands out decks.  A deck is a fixed list of operation templates
whose numeric parameters (coefficients, point maps, symmetries, endpoints,
profiles) are drawn from the run seed and the deck index, so every deck of a
workload has the same composition and the same seed always gives the same
inputs.  A run measures a fixed number of whole decks, round(seconds /
deck_seconds), where ``deck_seconds`` is a deck's operation time at the
reference speed of calibrate.py, measured at the commit that defined the
benchmark.  Every run for a given --seconds therefore does the same
operations on every seed, machine and commit, and the order statistics
(median, eleventh largest) fall at the same place in the deck's mix.

Every operation carries an oracle that does not come from the code under
test: closed forms, the paper's theory table for the canonical systems, the
same table for point-mapped copies (metamorphic equality with the chart),
path independence of transport, and the simulator residuals.  An oracle
returns None when the answer passes and a short reason when it does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from affsym import canonical, cli, geometry, liefn, pdesim, pfaff, tensor
from affsym import expr as ex

WORKLOADS = ("analyze", "transport", "simulate")


@dataclass
class Op:
    """One checked operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    perturb: Callable[[Any], Any]  # a wrong answer, for the oracle self-test


def deck_rng(seed, deck):
    return np.random.default_rng([seed, deck])


def make(name, seed, workdir):
    """Build a workload's shared inputs (the part of set-up before decks)."""
    if name == "analyze":
        return Analyze(seed, workdir)
    if name == "transport":
        return Transport(seed)
    if name == "simulate":
        return Simulate(seed)
    raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# analyze: CLI subcommands on generated documents
# ---------------------------------------------------------------------------

# The canonical systems attain the symmetry dimension of their degeneration
# class m, n(n+1-m) + m(m-1)/2 (n(n+1) for maximal, n(n+1)/2 for constant
# curvature), and the pointwise bound at depth 1 and 2 equals it there.
def class_bound(n, m):
    return n * (n + 1 - m) + m * (m - 1) // 2


# (family, n, chart): "spec" documents carry the canonical specification,
# "mapped" ones explicit coefficients of the system carried through a seeded
# polynomial point map.  The subcommands run on each document follow.  Kept
# out for run time: constant curvature at n = 4 beyond `canonical` (3 s per
# report), mapped constant curvature at n = 3 (1-4 s per operation) and
# `report` on mapped constant curvature at n = 2 (0.8 s).  Of the 33
# operations the costliest is `report` on constant curvature n = 3 (0.7 s),
# then the three depth-2 `bound`s on constant curvature (0.5 s), so with 4
# decks the eleventh largest latency falls in the middle of that `bound`
# cluster.  Eleven operations are cheaper than `check-symmetry` on the
# rotation-extended system, and nine of those run on their own documents,
# so the median falls in the middle of that tight 50 ms cluster rather
# than between two operations of different cost.
ANALYZE_DECK = (
    ("maximal", 4, "spec", ("report", "check-symmetry", "bound", "canonical")),
    ("intermediate", 3, "spec", ("report", "check-symmetry", "bound", "canonical")),
    ("constcurv", 3, "spec", ("report", "check-symmetry", "bound", "canonical")),
    ("constcurv", 4, "spec", ("canonical",)),
    ("constcurv2d", 2, "spec", ("report", "check-symmetry", "bound", "canonical")),
    *((("constcurv2d", 2, "spec", ("check-symmetry",)),) * 8),
    ("maximal", 2, "mapped", ("report", "check-symmetry")),
    ("intermediate", 4, "mapped", ("report", "check-symmetry", "bound")),
    ("constcurv", 2, "mapped", ("check-symmetry", "bound")),
    ("constcurv2d", 2, "mapped", ("bound",)),
)


def _const(v):
    return ex.const(float(v))


def _affine(c, coeffs):
    """c + sum_s coeffs[s] * y^(s+1), skipping zero coefficients."""
    e = _const(c)
    for s, m in enumerate(coeffs):
        if m != 0.0:
            e = ex.add(e, ex.mul(_const(m), ex.coord(s + 1)))
    return e


def source_system(family, n, rng):
    """(canonical spec dict, expected m, a known symmetry as n Exprs)."""
    a = float(rng.uniform(0.5, 2.0))
    if family == "maximal":
        # zero connection, constant A: every affine field is a symmetry
        c = rng.uniform(-1, 1, n)
        M = rng.uniform(-1, 1, (n, n))
        eta = [_affine(c[i], M[i]) for i in range(n)]
        return {"kind": "maximal_7_11", "n": n, "a": a}, 0, eta
    if family == "intermediate":
        # constant covector u = (u1, 0, ..): constant fields and linear fields
        # in y2..yn along e2..en solve both determining equations
        u1 = float(rng.uniform(0.5, 1.5))
        c = rng.uniform(-1, 1, n)
        M = rng.uniform(-1, 1, (n, n))
        M[0, :] = 0.0
        M[:, 0] = 0.0
        eta = [_affine(c[i], M[i]) for i in range(n)]
        spec = {"kind": "intermediate_17_19", "n": n, "a": a, "m": 1, "u": [repr(u1)]}
        return spec, 1, eta
    if family == "constcurv":
        # conformally euclidean with all epsilons +1: rotations are isometries
        B = rng.uniform(-1, 1, (n, n))
        W = B - B.T
        eta = [_affine(0.0, W[i]) for i in range(n)]
        return {"kind": "constcurv_22_13", "n": n, "a": a}, n, eta
    if family == "constcurv2d":
        b = float(rng.uniform(0.2, 0.8))
        w = float(rng.uniform(0.5, 1.5)) * float(rng.choice((-1.0, 1.0)))
        eta = [_affine(0.0, [0.0, -w]), _affine(0.0, [w, 0.0])]
        return {"kind": "constcurv_2d_22_14", "n": 2, "a": a, "b": b}, 2, eta
    raise ValueError(family)


def point_map(n, a, b, rng):
    """ytilde_a = y_a + c y_b^2 + e y_b, with the explicit inverse."""
    c = float(rng.uniform(0.1, 0.3) * rng.choice((-1.0, 1.0)))
    e = float(rng.uniform(-0.2, 0.2))
    y = [ex.coord(i + 1) for i in range(n)]
    shear = ex.add(ex.mul(_const(c), ex.powi(y[b], 2)), ex.mul(_const(e), y[b]))
    forward, inverse = list(y), list(y)
    forward[a] = ex.add(y[a], shear)
    inverse[a] = ex.sub(y[a], shear)
    return tensor.PointMap(n, forward, inverse)


def _render(exprs):
    return [ex.to_string(e) for e in exprs]


def mapped_document(spec, eta, pair, rng):
    """Carry a canonical system and its symmetry through a seeded point map
    that shears coordinate pair[0] along pair[1], and print the explicit
    coefficients."""
    n = spec["n"]
    sysd = canonical.build_system(canonical.CanonicalSpec(**spec))
    pm = point_map(n, *pair, rng)
    new = geometry.transform_system(sysd, pm)
    eta_new = tensor.pushforward(liefn.VectorField(n, eta).to_tensor(), pm)
    doc = {
        "n": n,
        "A": [_render(new.A.comps[i]) for i in range(n)],
        "Gamma": {
            str(k + 1): [_render(new.conn.gamma[k, r]) for r in range(n)] for k in range(n)
        },
    }
    return doc, list(eta_new.comps)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def check_cli(command, n, m, answer):
    code, text = answer
    if code != 0:
        return f"exit code {code}"
    try:
        d = json.loads(text)
    except ValueError:
        return "report is not valid JSON"
    bound = class_bound(n, m)
    if command == "report":
        cl = d["classify"]
        pb = d["pointwise_bound"]
        if (cl["m"], cl["bound"], cl["rank_constant"]) != (m, bound, True):
            return f"classify m={cl['m']} bound={cl['bound']}, theory m={m} bound={bound}"
        if (pb["depth_1"], pb["depth_2"]) != (bound, bound):
            return f"pointwise bounds {pb['depth_1']}/{pb['depth_2']}, theory {bound}"
        if not _finite(list(d["norms"].values()) + [d["gamma_symmetry_residual"]]):
            return "non-finite norm"
        return None
    if command == "check-symmetry":
        res = [d["res_A"], d["res_Gamma"]] + list(d.get("invariance", {}).values())
        if d["accepted"] is not True or len(res) < 3:
            return "known symmetry rejected"
        if not _finite(res) or max(res[:2]) > 1e-8 or max(res[2:]) > 1e-7:
            return f"residuals {res}"
        return None
    if command == "bound":
        if (d["bound"], d["depth"]) != (bound, 2):
            return f"bound {d['bound']}, theory {bound}"
        return None
    if command == "canonical":
        checks = list(d["checks"].values())
        if d["passed"] is not True or d["classify"].get("m") != m:
            return f"self-verification failed: {d['classify']}"
        if not _finite(checks) or (checks and max(checks) > d["tolerance"]):
            return f"structure checks {d['checks']}"
        return None
    raise ValueError(command)


def perturb_cli(command, answer):
    code, text = answer
    d = json.loads(text)
    if command == "report":
        d["classify"]["m"] += 1
    elif command == "check-symmetry":
        d["res_Gamma"] = 1e-3
    elif command == "bound":
        d["bound"] -= 1
    else:
        d["checks"] = dict(d["checks"], injected=1e-3)
    return code, json.dumps(d)


class Analyze:
    """CLI subcommands run in-process through affsym.cli.main."""

    deck_seconds = 3.4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def deck(self, index):
        rng = deck_rng(self.seed, index)
        ops = []
        for slot, (family, n, chart, commands) in enumerate(ANALYZE_DECK):
            spec, m, eta = source_system(family, n, rng)
            if chart == "spec":
                doc = {"canonical": spec}
            else:
                # The sheared pair sets the size of the explicit coefficients;
                # it follows the deck index, not the seed, so every seed
                # runs the same mix of document sizes.
                pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
                doc, eta = mapped_document(spec, eta, pairs[(index + slot) % len(pairs)], rng)
            path = os.path.join(self.workdir, f"d{index}-{slot}.json")
            with open(path, "w", encoding="utf-8") as fp:
                json.dump(doc, fp)
            eta_arg = "--eta=" + ",".join(_render(eta))
            for command in commands:
                argv = {
                    "report": ["report", path],
                    "check-symmetry": ["check-symmetry", path, eta_arg],
                    "bound": ["bound", path, "--depth", "2"],
                    "canonical": ["canonical", path],
                }[command]
                ops.append(
                    Op(
                        f"{command}:{family}{n}:{chart}",
                        lambda argv=argv: run_cli(argv),
                        lambda ans, c=command, n=n, m=m: check_cli(c, n, m, ans),
                        lambda ans, c=command: perturb_cli(c, ans),
                    )
                )
        return ops


# ---------------------------------------------------------------------------
# transport: Pfaff transport to seeded endpoints
# ---------------------------------------------------------------------------

# (system, n, operations per deck).  The many cheap n = 2 transports put the
# median inside one cluster of equal-cost operations, and with 3 decks the
# eleventh largest falls in the middle of the 15 n = 3 transports.
TRANSPORT_DECK = (("constcurv_22", 2, 12), ("constcurv_22", 3, 5), ("covector_14", 2, 1))
TRANSPORT_TOL = 1e-6
ENDPOINT_RADIUS = 0.35  # keeps every endpoint and vertex inside [-0.4, 0.4]^n
# The check path's vertex sits this far off the midpoint of the straight
# path: far enough that a non-integrable answer shows, near enough that the
# check costs about one more transport.
DETOUR = 0.1


def seeded_point(n, rng):
    d = rng.normal(size=n)
    return ENDPOINT_RADIUS * d / np.linalg.norm(d)


def detour_vertex(y, rng):
    """A seeded point DETOUR away from the midpoint of origin -> y, in a
    direction perpendicular to y."""
    d = rng.normal(size=len(y))
    d -= (d @ y) / (y @ y) * y
    return 0.5 * y + DETOUR * d / np.linalg.norm(d)


def constcurv_closed_form(y):
    """u_j = -y^j / f(y), f = 1/(2(n-1)) + |y|^2/2: transport of zero data
    from the origin under the constant-curvature system."""
    n = len(y)
    return -y / (1.0 / (2 * (n - 1)) + 0.5 * float(y @ y))


def _vector_check(want, got):
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return "non-finite or misshapen answer"
    err = float(np.max(np.abs(got - want)))
    if err > TRANSPORT_TOL * max(1.0, float(np.max(np.abs(want)))):
        return f"off by {err:.3e}"
    return None


def check_path_independence(prob, vertex, y, got):
    """Transport along origin -> vertex -> y must give the same covector."""
    other = pfaff.pfaff_integrate(prob, np.stack([prob.p0, vertex, y]))[-1]
    return _vector_check(other, got)


class Transport:
    """transport_to from the origin; the systems are built once in set-up."""

    deck_seconds = 4.5

    def __init__(self, seed):
        self.seed = seed
        self.problems = {}
        for kind, n, _ in TRANSPORT_DECK:
            sysd = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=n))
            if kind == "constcurv_22":
                g, _f = canonical.constcurv_metric(n)
                prob = pfaff.named_system(kind, conn=sysd.conn, g=g)
            else:
                prob = pfaff.named_system(kind, conn=sysd.conn)
            self.problems[(kind, n)] = prob

    def deck(self, index):
        rng = deck_rng(self.seed, index)
        ops = []
        for kind, n, count in TRANSPORT_DECK:
            prob = self.problems[(kind, n)]
            for _ in range(count):
                y = seeded_point(n, rng)
                if kind == "constcurv_22":
                    check = lambda got, y=y: _vector_check(constcurv_closed_form(y), got)
                else:
                    vertex = detour_vertex(y, rng)
                    check = lambda got, p=prob, v=vertex, y=y: check_path_independence(
                        p, v, y, got
                    )
                ops.append(
                    Op(
                        f"{kind}:n{n}",
                        lambda p=prob, y=y: pfaff.transport_to(p, y),
                        check,
                        lambda got: np.asarray(got) + 1e-4,
                    )
                )
        return ops


# ---------------------------------------------------------------------------
# simulate: method-of-lines evolution
# ---------------------------------------------------------------------------

# (grid size N, operations per deck) for each system.  The costliest
# operation, constant curvature at N = 4096, runs once a deck and is about
# a fifth of a deck's time, so a 12 s run holds 24 of them and the
# eleventh largest latency falls in their middle rather than in their upper
# tail; the median falls among the constant curvature N = 64 operations.
SIM_MIX = ((64, 3), (1024, 3), (4096, 1))
SIM_STEPS = 8  # RK4 steps per operation, at half the stability limit
SIM_LENGTH = 2 * np.pi
# pde_residual over the snapshots (t0, t0 + h, t0 + 2h), h = SIM_STEPS dt / 2,
# is the central-difference error K h^2 plus rounding of order eps / h; over
# 15 decks of these profiles it stayed below 13 % of this bound.
PDE_K = 100.0
PDE_ROUND = 1e-12
# The embedding defect of the spin chain is the stencil mismatch between chart
# and sphere, at most 0.33 dx^2 over the same decks.
EMBED_K = 2.0


def seeded_profiles(n, rng):
    out = []
    for _ in range(n):
        c = rng.uniform(-0.1, 0.1)
        amp = rng.uniform(0.05, 0.15, 2)
        phase = rng.uniform(0.0, 2 * np.pi, 2)
        out.append(
            lambda x, c=c, amp=amp, phase=phase: c
            + amp[0] * np.sin(x + phase[0])
            + amp[1] * np.sin(2 * x + phase[1])
        )
    return out


def pde_bound(h):
    return PDE_K * h * h + PDE_ROUND / h


def check_simulation(sysd, grid, dt, out, spin):
    values = out.values
    if values.shape != grid.values.shape or not np.all(np.isfinite(values)):
        return "non-finite or misshapen grid"
    mid = pdesim.evolve(sysd, grid, dt, SIM_STEPS // 2)
    h = SIM_STEPS * dt / 2
    res = pdesim.pde_residual(sysd, [grid, mid, out])
    if not res <= pde_bound(h):
        return f"pde_residual {res:.3e} > {pde_bound(h):.3e}"
    if spin:
        emb = pdesim.heisenberg_embedding_residual(out, dt, sys=sysd)
        if not emb <= EMBED_K * grid.dx**2:
            return f"embedding residual {emb:.3e} > {EMBED_K * grid.dx**2:.3e}"
    return None


def perturb_grid(out):
    values = out.values.copy()
    values[len(values) // 3] += 1e-3
    return out.copy(values=values)


class Simulate:
    """evolve on the spin chain (n = 2) and constant curvature (n = 3)."""

    deck_seconds = 0.5

    def __init__(self, seed):
        self.seed = seed
        self.systems = (
            ("heisenberg", pdesim.heisenberg_system(), True),
            ("constcurv3", canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=3)), False),
        )

    def deck(self, index):
        rng = deck_rng(self.seed, index)
        ops = []
        for name, sysd, spin in self.systems:
            for N in (N for N, count in SIM_MIX for _ in range(count)):
                grid = pdesim.make_grid(seeded_profiles(sysd.n, rng), N, SIM_LENGTH)
                dt = 0.5 * pdesim.stability_limit(sysd, grid)
                ops.append(
                    Op(
                        f"{name}:N{N}",
                        lambda s=sysd, g=grid, dt=dt: pdesim.evolve(s, g, dt, SIM_STEPS),
                        lambda out, s=sysd, g=grid, dt=dt, spin=spin: check_simulation(
                            s, g, dt, out, spin
                        ),
                        perturb_grid,
                    )
                )
        return ops

"""Command-line front end: load system definitions from JSON, run the
analyses, and emit deterministic JSON reports plus CSV snapshots.

Document schema (UTF-8 JSON):

    {
      "n": 2,
      "A": [["1", "0"], ["0", "1"]],            # n x n expression strings
      "Gamma": {"1": [[...]], "2": [[...]]},    # upper index -> lower matrix
      "canonical": {"kind": ..., "n": ...},     # alternative to A/Gamma
      "sample": [[0.1, -0.2], ...],             # optional probe points
      "tolerances": {"symmetry": 1e-8, ...}     # optional overrides
    }

Expressions use coordinates y1..yn.  A document may carry either explicit
coefficients, a canonical specification, or both (explicit entries win).
Component lists on the command line are comma-separated; when the first
component starts with '-', attach the value with '=' (``--eta=-y2,y1``,
``--transport=-y2,y1``), since argparse reads a separate ``-y2,y1`` as an
option.
Exit codes: 0 when every requested check passes its tolerance, 2 on a
tolerance failure, 1 on any input error.  Reports are deterministic for a
fixed input: keys are emitted sorted and floats with 17 significant digits.
The sample seed can be overridden with the AFFSYM_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .canonical import (
    CANONICAL_KINDS,
    CanonicalSpec,
    build_system,
    constcurv_metric,
    projective_flatten,
)
from .expr import DomainError, ExprError, ParseError, const, parse_expr, to_string
from .geometry import (
    Connection,
    DiffusionSystem,
    covariant_differential,
    curvature,
    ricci_and_s,
    structure_residual,
)
from .liefn import VectorField
from .pdesim import (
    dump_csv,
    evolve_snapshots,
    make_grid,
    pde_residual,
    stability_limit,
    symmetry_transport_check,
)
from .symmetry import (
    RankNotConstantError,
    classify,
    determining_residuals,
    invariance_suite,
    pointwise_symmetry_bound,
)
from .tensor import ADD, MUL, TensorField, bcast, grad, sym_matrix_inverse
from .util import sample_points

__all__ = ["SystemDocument", "from_diffusional", "main", "render_json"]

DEFAULT_TOLERANCES = {
    "symmetry": 1e-8,
    "structure": 1e-8,
    "invariance": 1e-7,
    "flatten": 1e-5,
    "gamma_symmetry": 1e-10,
    "transport": 1e-6,
}


class InputError(ValueError):
    """Malformed document / flags; maps to exit code 1."""


def _is_real(v):
    """True for an int or float (bool excluded), the JSON numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class SystemDocument:
    """Parsed and validated system definition."""

    def __init__(self, n, a_rows=None, gamma=None, canonical=None, sample=None, tolerances=None):
        self.n = int(n)
        if self.n < 1:
            raise InputError("dimension n must be >= 1")
        self.canonical = canonical
        self.a_rows = a_rows
        self.gamma_rows = gamma
        self.sample = None
        if sample is not None:
            raw = np.asarray(sample, dtype=object)
            if raw.ndim != 2 or raw.shape[1] != self.n or not all(map(_is_real, raw.flat)):
                raise InputError("sample must be a list of points of dimension n, given as numbers")
            self.sample = raw.astype(float)
            if not np.all(np.isfinite(self.sample)):
                raise InputError("sample coordinates must be finite")
        tolerances = {} if tolerances is None else tolerances
        if not isinstance(tolerances, dict):
            raise InputError("tolerances must map check names to numbers")
        for key, val in tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                known = sorted(DEFAULT_TOLERANCES)
                raise InputError(f"unknown tolerance {key!r}; pick from {known}")
            if not (_is_real(val) and math.isfinite(val) and val >= 0):
                raise InputError(f"tolerance {key!r} must be a finite number >= 0, got {val!r}")
        self.tolerances = {**DEFAULT_TOLERANCES, **tolerances}
        self._system = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise InputError("document root must be a JSON object")
        canonical = None
        if "canonical" in data:
            cdata = dict(data["canonical"])
            kind = cdata.pop("kind", None)
            if kind not in CANONICAL_KINDS:
                raise InputError(f"canonical.kind must be one of {CANONICAL_KINDS}")
            try:
                canonical = CanonicalSpec(
                    kind,
                    n=cdata.pop("n"),
                    a=cdata.pop("a", 1.0),
                    m=cdata.pop("m", 0),
                    b=cdata.pop("b", 0.0),
                    epsilons=tuple(cdata.pop("epsilons", ())),
                    u=tuple(cdata.pop("u", ())),
                    psi=cdata.pop("psi", None),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"invalid canonical spec: {exc}") from exc
            if cdata:
                raise InputError(f"unknown canonical fields: {sorted(cdata)}")
        n = data.get("n", canonical.n if canonical else None)
        if n is None:
            raise InputError("document needs 'n' (or a canonical spec)")
        if canonical is not None and n != canonical.n:
            raise InputError("document n conflicts with the canonical spec")
        doc = cls(
            n,
            a_rows=data.get("A"),
            gamma=data.get("Gamma"),
            canonical=canonical,
            sample=data.get("sample"),
            tolerances=data.get("tolerances"),
        )
        doc.validate()
        return doc

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fp:
                data = json.load(fp)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    def validate(self):
        n = self.n
        if self.a_rows is not None:
            arr = np.asarray(self.a_rows, dtype=object)
            if arr.shape != (n, n):
                raise InputError(f"A must be {n}x{n} expression strings")
            self._parse_all(arr)
        if self.gamma_rows is not None:
            if not isinstance(self.gamma_rows, dict):
                raise InputError("Gamma must map upper indices to lower matrices")
            seen = set()
            for key, mat in self.gamma_rows.items():
                try:
                    k = int(key)
                except (TypeError, ValueError):
                    raise InputError(f"Gamma key {key!r} is not an index") from None
                if not (1 <= k <= n):
                    raise InputError(f"Gamma upper index {k} outside 1..{n}")
                if k in seen:
                    raise InputError(f"Gamma upper index {k} is given twice")
                seen.add(k)
                m = np.asarray(mat, dtype=object)
                if m.shape != (n, n):
                    raise InputError(f"Gamma[{k}] must be {n}x{n}")
                self._parse_all(m)
        if self.a_rows is None and self.canonical is None:
            raise InputError("document needs either A (+ Gamma) or a canonical spec")
        sysd = self.to_system()
        res = sysd.conn.symmetry_residual(self._points())
        if res > self.tolerances["gamma_symmetry"]:
            raise InputError(
                f"Gamma lower-index matrices are not symmetric: residual {res:.3e}"
            )

    def _parse_all(self, arr):
        for t in arr.reshape(-1):
            if not isinstance(t, str):
                raise InputError(f"coefficient entries must be strings, got {t!r}")
            try:
                parse_expr(t, self.n)
            except ParseError as exc:
                raise InputError(f"bad expression {t!r}: {exc}") from exc

    def _points(self, count=20):
        if self.sample is not None:
            return self.sample
        return sample_points(self.n, count)

    # -- conversion ---------------------------------------------------------

    def to_system(self):
        if self._system is not None:
            return self._system
        n = self.n
        if self.a_rows is None and self.canonical is not None:
            self._system = build_system(self.canonical)
            return self._system
        A = TensorField.from_strings(n, 1, 1, self.a_rows)
        gamma = TensorField.zeros(n, 1, 2).comps
        for key, mat in (self.gamma_rows or {}).items():
            gamma[int(key) - 1] = TensorField.from_strings(n, 0, 2, mat).comps
        self._system = DiffusionSystem(n, A, Connection(n, gamma), check=False)
        return self._system

    def to_dict(self):
        out = {"n": self.n}
        if self.a_rows is not None:
            out["A"] = [list(row) for row in self.a_rows]
        if self.gamma_rows is not None:
            out["Gamma"] = {str(k): [list(r) for r in m] for k, m in self.gamma_rows.items()}
        if self.canonical is not None:
            out["canonical"] = self.canonical.to_dict()
        if self.sample is not None:
            out["sample"] = [[float(v) for v in p] for p in self.sample]
        return out


def from_diffusional(a_rows, sample=None):
    """Expand a divergence-form system into evolution shape.

    Gamma^j_rs = sum_i (A^{-1})^j_i (dA^i_r/dy^s + dA^i_s/dy^r)/2, with the
    inverse taken symbolically through the adjugate; the document carries
    the coefficients as expression strings.
    """
    arr = np.asarray(a_rows, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("A must be a square matrix of expression strings")
    n = arr.shape[0]
    a_field = TensorField.from_strings(n, 1, 1, arr)
    pts = np.asarray(sample, dtype=float) if sample is not None else sample_points(n, 20)
    dets = np.linalg.det(a_field.evaluate_many(pts))
    if np.min(np.abs(dets)) < 1e-12:
        raise InputError("A is singular at a sample point")
    dA = grad(a_field.comps, n)  # [i, r, s] = dA^i_r / dy^s
    sym = MUL(const(0.5), ADD(dA, dA.transpose(0, 2, 1)))
    ainv = sym_matrix_inverse(a_field.comps)
    terms = MUL(bcast(ainv, "ji", "jrsi"), bcast(sym, "irs", "jrsi"))
    texts = np.frompyfunc(to_string, 1, 1)(ADD.reduce(terms, axis=-1))
    doc = SystemDocument(
        n,
        a_rows=[[str(t) for t in row] for row in arr],
        gamma={str(j + 1): mat.tolist() for j, mat in enumerate(texts)},
    )
    doc.validate()
    return doc


# ---------------------------------------------------------------------------
# Deterministic JSON rendering
# ---------------------------------------------------------------------------


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if v is None:
        return "null"
    return json.dumps(v)


def render_json(obj, indent=0):
    """Serialize with sorted keys and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {render_json(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [render_json(v, indent + 1) for v in obj]
        flat = "[" + ", ".join(items) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    return _fmt(obj)


def _emit(data, stream=None):
    (stream or sys.stdout).write(render_json(data) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_eta(text, n):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputError(f"--eta needs {n} comma-separated components")
    try:
        return VectorField(n, [parse_expr(p, n) for p in parts])
    except ParseError as exc:
        raise InputError(f"bad component in --eta: {exc}") from exc


def _parse_point(text, n, what):
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{what} must be comma-separated numbers") from exc
    if len(vals) != n:
        raise InputError(f"{what} needs {n} components")
    if not all(map(math.isfinite, vals)):
        raise InputError(f"{what} components must be finite")
    return np.asarray(vals)


def cmd_inspect(args):
    doc = SystemDocument.load(args.file)
    sysd = doc.to_system()
    pts = doc._points()
    a_vals = sysd.A.evaluate_many(pts)
    out = {
        "n": doc.n,
        "valid": True,
        "gamma_symmetry_residual": sysd.conn.symmetry_residual(pts),
        "det_A_min_abs": float(np.min(np.abs(np.linalg.det(a_vals)))),
        "sample_count": len(pts),
    }
    if doc.canonical is not None:
        out["canonical"] = doc.canonical.to_dict()
    _emit(out)
    return 0


def cmd_curvature(args):
    doc = SystemDocument.load(args.file)
    sysd = doc.to_system()
    pts = doc._points()
    curv = curvature(sysd.conn)
    parts = ricci_and_s(sysd.conn, curv)
    out = {
        "points": pts,
        "curvature": curv.evaluate_many(pts),
        "ricci": parts["ricci"].evaluate_many(pts),
        "s": parts["s"].evaluate_many(pts),
        "ricci_sym": parts["ricci_sym"].evaluate_many(pts),
        "ricci_skew": parts["ricci_skew"].evaluate_many(pts),
    }
    _emit(out)
    return 0


def cmd_classify(args):
    doc = SystemDocument.load(args.file)
    sysd = doc.to_system()
    try:
        rep = classify(sysd.conn, doc._points())
    except RankNotConstantError as exc:
        _emit({"error": str(exc), "rank_constant": False})
        return 2
    _emit(rep.to_dict())
    return 0


def cmd_check_symmetry(args):
    doc = SystemDocument.load(args.file)
    sysd = doc.to_system()
    eta = _parse_eta(args.eta, doc.n)
    pts = doc._points()
    res = determining_residuals(sysd, eta, pts)
    tol = doc.tolerances["symmetry"]
    accepted = res["res_A"].max_abs <= tol and res["res_Gamma"].max_abs <= tol
    out = {
        "res_A": res["res_A"].max_abs,
        "res_Gamma": res["res_Gamma"].max_abs,
        "equation": res["res_Gamma"].details.get("equation", "reduced"),
        "tolerance": tol,
        "accepted": accepted,
    }
    if accepted:
        suite = invariance_suite(sysd, eta, pts)
        out["invariance"] = {k: v.max_abs for k, v in suite.items()}
        itol = doc.tolerances["invariance"]
        if any(v.max_abs > itol for v in suite.values()):
            accepted = False
            out["accepted"] = False
    _emit(out)
    return 0 if accepted else 2


def cmd_bound(args):
    doc = SystemDocument.load(args.file)
    sysd = doc.to_system()
    p0 = (
        _parse_point(args.at, doc.n, "--at")
        if args.at
        else doc._points()[0]
    )
    bound = pointwise_symmetry_bound(sysd, p0, args.depth)
    _emit({"bound": bound, "depth": args.depth, "point": [float(v) for v in p0]})
    return 0


def cmd_canonical(args):
    doc = SystemDocument.load(args.file)
    if doc.canonical is None:
        raise InputError("canonical subcommand needs a document with a canonical spec")
    spec = doc.canonical
    sysd = build_system(spec)
    pts = doc._points()
    tol = doc.tolerances["structure"]
    checks = {}
    expected_m = {
        "maximal_7_11": 0,
        "scalar_23_1": 0,
        "constcurv_22_13": spec.n,
        "constcurv_2d_22_14": 2,
    }.get(spec.kind)
    try:
        rep = classify(sysd.conn, pts)
        out_classify = rep.to_dict()
        m_ok = expected_m is None or rep.m == expected_m
    except RankNotConstantError as exc:
        out_classify = {"error": str(exc)}
        m_ok = False
    if spec.kind in ("maximal_7_11", "scalar_23_1"):
        checks["curvature"] = float(
            np.max(np.abs(curvature(sysd.conn).evaluate_many(pts)))
        )
    if spec.kind.startswith("constcurv"):
        g, _f = constcurv_metric(spec.n, spec.epsilons)
        parts = ricci_and_s(sysd.conn)
        checks["ricci_minus_metric"] = float(
            np.max(np.abs(parts["ricci"].evaluate_many(pts) - g.evaluate_many(pts)))
        )
        checks["s_field"] = float(np.max(np.abs(parts["s"].evaluate_many(pts))))
        checks["nabla_metric"] = float(
            np.max(np.abs(covariant_differential(sysd.conn, g).evaluate_many(pts)))
        )
        checks["nabla_ricci"] = float(
            np.max(
                np.abs(
                    covariant_differential(sysd.conn, parts["ricci"]).evaluate_many(pts)
                )
            )
        )
        checks["structure_19_14"] = structure_residual(
            sysd.conn, "const_curv_19_14", pts
        ).max_abs
    if spec.kind.startswith("intermediate"):
        form = "intermediate_10_15" if spec.n >= 3 else "two_dim_12_1"
        checks[f"structure_{form}"] = structure_residual(sysd.conn, form, pts).max_abs
    ok = m_ok and all(v <= tol for v in checks.values())
    _emit(
        {
            "kind": spec.kind,
            "n": spec.n,
            "classify": out_classify,
            "checks": checks,
            "tolerance": tol,
            "passed": bool(ok),
        }
    )
    return 0 if ok else 2


def cmd_flatten(args):
    doc = SystemDocument.load(args.file)
    if doc.n < 2:
        raise InputError("flatten needs a chart of dimension n >= 2")
    sysd = doc.to_system()
    p0 = _parse_point(args.at, doc.n, "--at") if args.at else np.zeros(doc.n)
    u0 = _parse_point(args.u0, doc.n, "--u0") if args.u0 else np.zeros(doc.n)
    tol = doc.tolerances["flatten"]
    try:
        res = projective_flatten(sysd.conn, p0, u0)
    except ValueError as exc:
        _emit({"error": str(exc), "passed": False})
        return 2
    rep = {k: v.max_abs for k, v in res.report.items()}
    rep["passed"] = res.report["flat_curvature"].max_abs <= tol
    _emit(rep)
    return 0 if rep["passed"] else 2


def cmd_simulate(args):
    for flag, val in (("--dt", args.dt), ("--length", args.length)):
        if not (math.isfinite(val) and val > 0):
            raise InputError(f"{flag} must be a finite number > 0, got {val!r}")
    if not math.isfinite(args.tau):
        raise InputError(f"--tau must be finite, got {args.tau!r}")
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1, got {args.steps}")
    if args.grid < 8:
        raise InputError(f"--grid needs at least 8 points, got {args.grid}")
    doc = SystemDocument.load(args.file)
    sysd = doc.to_system()
    n = doc.n
    length = args.length
    if args.initial:
        texts = [t.strip() for t in args.initial.split(";")]
        if len(texts) != n:
            raise InputError(f"--initial needs {n} semicolon-separated profiles in x")
        try:
            exprs = [parse_expr(t.replace("x", "y1"), 1) for t in texts]
        except ParseError as exc:
            raise InputError(f"bad profile: {exc}") from exc
        from .expr import eval_many

        profiles = [
            (lambda e: (lambda x: eval_many(e, x[:, None])))(e) for e in exprs
        ]
    else:
        profiles = [
            (lambda k: (lambda x: 0.2 * np.sin(2 * np.pi * x / length + k)))(i)
            for i in range(n)
        ]
    grid = make_grid(profiles, args.grid, length)
    limit = stability_limit(sysd, grid)
    every = max(1, args.steps // 4)
    snaps = evolve_snapshots(sysd, grid, args.dt, args.steps, every)
    # the trailing snapshot may be ragged when every does not divide steps;
    # the residual needs equal spacing
    regular = snaps if args.steps % every == 0 else snaps[:-1]
    residual = pde_residual(sysd, regular) if len(regular) >= 3 else None
    out = {
        "final_t": snaps[-1].t,
        "stability_limit": limit,
        "pde_residual": residual,
        "mean_drift": float(
            np.max(np.abs(snaps[-1].values.mean(axis=0) - snaps[0].values.mean(axis=0)))
        ),
    }
    code = 0
    if args.transport:
        eta = _parse_eta(args.transport, n)
        rep = symmetry_transport_check(sysd, eta, args.tau, grid, args.dt, args.steps)
        out["transport_gap"] = rep["max_abs"]
        if rep["max_abs"] > doc.tolerances["transport"]:
            code = 2
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fp:
            dump_csv(snaps, fp)
        out["csv"] = args.csv
    _emit(out)
    return code


def cmd_report(args):
    doc = SystemDocument.load(args.file)
    sysd = doc.to_system()
    pts = doc._points()
    curv = curvature(sysd.conn)
    parts = ricci_and_s(sysd.conn, curv)
    out = {
        "n": doc.n,
        "gamma_symmetry_residual": sysd.conn.symmetry_residual(pts),
        "norms": {
            "curvature": float(np.max(np.abs(curv.evaluate_many(pts)))),
            "ricci": float(np.max(np.abs(parts["ricci"].evaluate_many(pts)))),
            "s": float(np.max(np.abs(parts["s"].evaluate_many(pts)))),
        },
    }
    code = 0
    try:
        rep = classify(sysd.conn, pts)
        out["classify"] = rep.to_dict()
    except RankNotConstantError as exc:
        out["classify"] = {"error": str(exc)}
        code = 2
    out["pointwise_bound"] = {
        "depth_1": pointwise_symmetry_bound(sysd, pts[0], 1),
        "depth_2": pointwise_symmetry_bound(sysd, pts[0], 2),
        "point": [float(v) for v in pts[0]],
    }
    _emit(out)
    return code


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # input errors exit with 1 (argparse default would be 2)
        self.print_usage(sys.stderr)
        raise SystemExit(self._input_error(message))

    @staticmethod
    def _input_error(message):
        sys.stderr.write(f"error: {message}\n")
        return 1


def build_parser():
    p = _Parser(prog="affsym", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("inspect", help="parse a document and report invariants")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("curvature", help="curvature and Ricci data at sample points")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("classify", help="degeneration case and dimension bound")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("check-symmetry", help="determining residuals for a field")
    sp.add_argument("file")
    sp.add_argument(
        "--eta",
        required=True,
        help="comma-separated components; write --eta=-y2,y1 when the first starts with '-'",
    )
    sp.set_defaults(func=cmd_check_symmetry)

    sp = sub.add_parser("bound", help="pointwise symmetry-dimension bound")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=2, choices=(0, 1, 2))
    sp.add_argument("--at", help="evaluation point, comma-separated")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("canonical", help="build a canonical system and self-verify")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_canonical)

    sp = sub.add_parser("flatten", help="projective flattening pipeline")
    sp.add_argument("file")
    sp.add_argument("--at", help="transport base point")
    sp.add_argument("--u0", help="initial covector values")
    sp.set_defaults(func=cmd_flatten)

    sp = sub.add_parser("simulate", help="method-of-lines evolution")
    sp.add_argument("file")
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--dt", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--length", type=float, default=2 * np.pi)
    sp.add_argument("--initial", help="semicolon-separated profiles in x")
    sp.add_argument(
        "--transport",
        help="symmetry field for the transport check, comma-separated; "
        "write --transport=-y2,y1 when the first component starts with '-'",
    )
    sp.add_argument("--tau", type=float, default=0.1)
    sp.add_argument("--csv", help="write snapshots as CSV")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("report", help="full analysis pipeline")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ParseError, DomainError, ExprError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RecursionError:  # a RuntimeError, but the input is at fault
        sys.stderr.write("error: input nested too deeply to process\n")
        return 1
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

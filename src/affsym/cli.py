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
import re
import sys

import numpy as np

from .canonical import (
    CANONICAL_KINDS,
    CanonicalSpec,
    build_system,
    constcurv_metric,
    projective_flatten,
)
from .expr import ExprError, ParseError, const, eval_many_shared, parse_expr, to_string
from .geometry import (
    Connection,
    DiffusionSystem,
    _asymmetry,
    _point_values,
    _regular,
    _structure_report,
)
from .liefn import VectorField
from .pdesim import (
    _judge,
    _operator,
    _rk4,
    _spacing,
    _transport,
    dump_csv,
    make_grid,
    pde_residual,
    stability_limit,
)
from .symmetry import (
    RankNotConstantError,
    _degeneration,
    check_symmetry,
    pointwise_symmetry_bound,
    pointwise_symmetry_bounds,
)
from .tensor import ADD, MUL, TensorField, bcast, eval_arrays, grad, sym_matrix_inverse
from .util import DEFAULT_TOLERANCES, _env_seed, as_points, sample_points

__all__ = ["SystemDocument", "from_diffusional", "main", "render_json"]

# simulate's largest --grid: 2**20 points keep each state array of n = 3
# within 25 MB and are checked before anything is allocated
GRID_MAX = 2**20

# the largest dimension a document may declare: at n = 32 the curvature's
# (20, n, n, n, n) float array at the sample points takes 168 MB, and n is
# checked before anything is built
N_MAX = 32


class InputError(ValueError):
    """Malformed document / flags; maps to exit code 1."""


def _is_real(v):
    """True for an int or float (bool excluded), the JSON numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class SystemDocument:
    """A checked system definition and the system it builds.

    The constructor parses every coefficient once, builds the system and
    evaluates A and Gamma, checked, at the document's points, keeping A's
    values: a coefficient that is not finite there raises DomainError, and
    Gamma must be symmetric in its lower indices there.
    """

    def __init__(self, n, a_rows=None, gamma=None, canonical=None, sample=None, tolerances=None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"dimension n must be an integer >= 1, got {n!r}")
        if n > N_MAX:
            raise InputError(f"dimension n = {n} exceeds the largest supported, {N_MAX}")
        self.n = n
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
        self._build()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise InputError("document root must be a JSON object")
        canonical = None
        if "canonical" in data:
            if not isinstance(data["canonical"], dict):
                raise InputError("invalid canonical spec: it must be a JSON object")
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
        return cls(
            n,
            a_rows=data.get("A"),
            gamma=data.get("Gamma"),
            canonical=canonical,
            sample=data.get("sample"),
            tolerances=data.get("tolerances"),
        )

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

    def _build(self):
        n = self.n
        a = None
        gamma = TensorField.zeros(n, 1, 2).comps
        groups = {}  # the parenthesised groups parsed so far, shared by A and Gamma
        if self.a_rows is not None:
            arr = np.asarray(self.a_rows, dtype=object)
            if arr.shape != (n, n):
                raise InputError(f"A must be {n}x{n} expression strings")
            a = self._parse_all(arr, groups)
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
                gamma[k - 1] = self._parse_all(m, groups)
        if a is not None:
            A = TensorField(n, 1, 1, a)
            self._system = DiffusionSystem(n, A, Connection(n, gamma), check=False)
        elif self.canonical is not None:
            try:
                self._system = build_system(self.canonical)
            except ValueError as exc:
                raise InputError(f"invalid canonical spec: {exc}") from exc
        else:
            raise InputError("document needs either A (+ Gamma) or a canonical spec")
        self._points = self.sample if self.sample is not None else sample_points(n, 20)
        arrays = [self._system.A.comps, self._system.conn.gamma]
        self._a_values, g = eval_arrays(arrays, self._points, checked=True)
        res = self._gamma_residual = _asymmetry(g)
        if res > self.tolerances["gamma_symmetry"]:
            raise InputError(f"Gamma lower-index matrices are not symmetric: residual {res:.3e}")

    def _parse_all(self, arr, groups):
        """The array of expression strings parsed, entry by entry, sharing
        ``groups`` (parse_expr's) with the document's other arrays."""
        out = np.empty(arr.shape, dtype=object)
        for idx, t in np.ndenumerate(arr):
            if not isinstance(t, str):
                raise InputError(f"coefficient entries must be strings, got {t!r}")
            try:
                out[idx] = parse_expr(t, self.n, groups=groups)
            except ParseError as exc:
                raise InputError(f"bad expression {t!r}: {exc}") from exc
        return out

    # -- conversion ---------------------------------------------------------

    def to_system(self):
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
    pts = as_points(sample, n)
    if not _regular(a_field.evaluate_many(pts)):
        raise InputError("A is singular at a sample point")
    dA = grad(a_field.comps, n)  # [i, r, s] = dA^i_r / dy^s
    sym = MUL(const(0.5), ADD(dA, dA.transpose(0, 2, 1)))
    ainv = sym_matrix_inverse(a_field.comps)
    terms = MUL(bcast(ainv, "ji", "jrsi"), bcast(sym, "irs", "jrsi"))
    texts = np.frompyfunc(to_string, 1, 1)(ADD.reduce(terms, axis=-1))
    return SystemDocument(
        n,
        a_rows=[[str(t) for t in row] for row in arr],
        gamma={str(j + 1): mat.tolist() for j, mat in enumerate(texts)},
    )


# ---------------------------------------------------------------------------
# Deterministic JSON rendering
# ---------------------------------------------------------------------------


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            # JSON has no inf or nan; a report value should never be one
            raise InputError(f"report value {float(v)!r} is not finite")
        return f"{float(v):.17g}"
    if v is None:
        return "null"
    return json.dumps(v)


def render_json(obj, indent=0):
    """Serialize with sorted keys and 17-significant-digit floats; a float
    that is not finite raises InputError."""
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


# ---------------------------------------------------------------------------
# Subcommands: each returns its report and exit code
# ---------------------------------------------------------------------------


def _load(args):
    """The document named on the command line, its system and its points."""
    doc = SystemDocument.load(args.file)
    return doc, doc.to_system(), doc._points


def _max_abs(values):
    return float(np.max(np.abs(values)))


def _classified(rh):
    """classify's report from the symmetric Ricci part's values at the
    points, as a dict and True, or the rank error and False."""
    try:
        return _degeneration(rh).to_dict(), True
    except RankNotConstantError as exc:
        return {"error": str(exc)}, False


def _parse_eta(text, n, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputError(f"{what} needs {n} comma-separated components")
    try:
        return VectorField.from_strings(n, parts)
    except ParseError as exc:
        raise InputError(f"bad component in {what}: {exc}") from exc


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
    doc, _sysd, pts = _load(args)
    with np.errstate(over="ignore", invalid="ignore"):
        det_min = float(np.min(np.abs(np.linalg.det(doc._a_values))))
    out = {
        "n": doc.n,
        "valid": True,
        "gamma_symmetry_residual": doc._gamma_residual,
        # a determinant beyond the float range has no finite minimum
        "det_A_min_abs": det_min if math.isfinite(det_min) else None,
        "sample_count": len(pts),
    }
    if doc.canonical is not None:
        out["canonical"] = doc.canonical.to_dict()
    return out, 0


def cmd_curvature(args):
    _doc, sysd, pts = _load(args)
    keys = ("curvature", "ricci", "s", "ricci_sym", "ricci_skew")
    return {"points": pts, **dict(zip(keys, _point_values(sysd.conn, pts)(keys)))}, 0


def cmd_classify(args):
    _doc, sysd, pts = _load(args)
    out, ok = _classified(_point_values(sysd.conn, pts)(("ricci_sym",))[0])
    return (out, 0) if ok else ({**out, "rank_constant": False}, 2)


def cmd_check_symmetry(args):
    doc, sysd, pts = _load(args)
    eta = _parse_eta(args.eta, doc.n, "--eta")
    out = check_symmetry(sysd, eta, pts, doc.tolerances["symmetry"], doc.tolerances["invariance"])
    return out, 0 if out["accepted"] else 2


def cmd_bound(args):
    doc, sysd, pts = _load(args)
    p0 = _parse_point(args.at, doc.n, "--at") if args.at else pts[0]
    bound = pointwise_symmetry_bound(sysd, p0, args.depth)
    return {"bound": bound, "depth": args.depth, "point": [float(v) for v in p0]}, 0


def cmd_canonical(args):
    doc, loaded, pts = _load(args)
    spec = doc.canonical
    if spec is None:
        raise InputError("canonical subcommand needs a document with a canonical spec")
    intermediate = spec.kind.startswith("intermediate")
    form = None
    if intermediate and spec.n >= 2:
        form = "intermediate_10_15" if spec.n >= 3 else "two_dim_12_1"
    # without an explicit A the document's system is the spec's
    sysd = loaded if doc.a_rows is None else build_system(spec)
    tol = doc.tolerances["structure"]
    expected_m = {
        "maximal_7_11": 0,
        "scalar_23_1": 0,
        "constcurv_22_13": spec.n,
        "constcurv_2d_22_14": 2,
    }.get(spec.kind)
    # check -> the field whose max |value| it is, after Ricci_sym and Ricci
    normed = {}
    if spec.kind in ("maximal_7_11", "scalar_23_1"):
        normed["curvature"] = "curvature"
    metric, unchecked = None, ()
    if spec.kind.startswith("constcurv"):
        metric, _f = constcurv_metric(spec.n, spec.epsilons)
        normed.update(s_field="s", nabla_metric="nabla_metric", nabla_ricci="nabla_ricci")
        form, unchecked = "const_curv_19_14", ("metric",)
    if form:
        unchecked += ("curvature", "ricci_sym", "ricci_skew")
    at_points = _point_values(sysd.conn, pts, nabla=metric is not None, metric=metric)
    rh, ric, *values = at_points(("ricci_sym", "ricci", *normed.values()), unchecked)
    if intermediate and not form:
        raise InputError(f"canonical has no structure check for {spec.kind} at n = {spec.n}")
    out_classify, m_ok = _classified(rh)
    m_ok = m_ok and (expected_m is None or out_classify["m"] == expected_m)
    checks = {k: _max_abs(v) for k, v in zip(normed, values)}
    if metric is not None:
        checks["ricci_minus_metric"] = _max_abs(ric - values[len(normed)])
    if form:
        key = "structure_19_14" if metric is not None else f"structure_{form}"
        checks[key] = _structure_report(form, *values[-3:], pts).max_abs
    ok = m_ok and all(v <= tol for v in checks.values())
    return {
        "kind": spec.kind, "n": spec.n, "classify": out_classify,
        "checks": checks, "tolerance": tol, "passed": bool(ok),
    }, 0 if ok else 2


def cmd_flatten(args):
    doc, sysd, _pts = _load(args)
    if doc.n < 2:
        raise InputError("flatten needs a chart of dimension n >= 2")
    p0 = _parse_point(args.at, doc.n, "--at") if args.at else np.zeros(doc.n)
    u0 = _parse_point(args.u0, doc.n, "--u0") if args.u0 else np.zeros(doc.n)
    try:
        res = projective_flatten(sysd.conn, p0, u0)
    except ValueError as exc:
        return {"error": str(exc), "passed": False}, 2
    out = {k: v.max_abs for k, v in res.report.items()}
    out["passed"] = max(out["flat_curvature"], out["path_gap"]) <= doc.tolerances["flatten"]
    return out, 0 if out["passed"] else 2


def _profiles(text, n):
    """--initial's profiles: expressions in the identifier x, as callables of
    the grid's x values."""
    texts = [t.strip() for t in text.split(";")]
    if len(texts) != n:
        raise InputError(f"--initial needs {n} semicolon-separated profiles in x")
    try:
        exprs = [parse_expr(re.sub(r"\bx\b", "y1", t), 1) for t in texts]
    except ParseError as exc:
        raise InputError(f"bad profile: {exc}") from exc
    return [lambda x, e=e: eval_many_shared([e], x[:, None])[0] for e in exprs]


def cmd_simulate(args):
    for flag, val in (("--dt", args.dt), ("--length", args.length)):
        if not (math.isfinite(val) and val > 0):
            raise InputError(f"{flag} must be a finite number > 0, got {val!r}")
    if not math.isfinite(args.tau):
        raise InputError(f"--tau must be finite, got {args.tau!r}")
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1, got {args.steps}")
    # a count beyond the float range cannot be multiplied: Python raises
    if args.steps > sys.float_info.max or not math.isfinite(args.dt * args.steps):
        raise InputError(f"--dt {args.dt!r} times --steps {args.steps} is beyond the float range")
    if not 8 <= args.grid <= GRID_MAX:
        raise InputError(f"--grid must be between 8 and {GRID_MAX} points, got {args.grid}")
    try:
        _spacing(args.grid, args.length)
    except ValueError as exc:
        raise InputError(f"--length {args.length!r} does not fit --grid {args.grid}: {exc}") from exc
    doc, sysd, pts = _load(args)
    n, length = doc.n, args.length
    if args.initial:
        profiles = _profiles(args.initial, n)
    else:
        profiles = [
            lambda x, k=k: 0.2 * np.sin(2 * np.pi * x / length + k) for k in range(n)
        ]
    try:
        grid = make_grid(profiles, args.grid, length)
    except ValueError as exc:
        # the flags are checked, so only a profile that is not finite on the
        # grid is left to fail here
        raise InputError(f"bad profile: {exc}") from exc
    limit = stability_limit(sysd, grid)
    if args.transport:
        # judged first: a refused or malformed field costs no evolution
        eta, tol = _parse_eta(args.transport, n, "--transport"), doc.tolerances
        _judge(sysd, eta, pts, tol["symmetry"], tol["invariance"])
    every = max(1, args.steps // 4)
    # the evolution's operator takes the report's limit: A's eigenvalues once
    snaps = _rk4(_operator(sysd, grid, limit), grid, args.dt, args.steps, every)
    # the trailing snapshot may be ragged when every does not divide steps;
    # the residual needs equal spacing
    regular = snaps if args.steps % every == 0 else snaps[:-1]
    out = {
        "final_t": snaps[-1].t,
        # a zero spectral radius of A sets no limit
        "stability_limit": limit if math.isfinite(limit) else None,
        "pde_residual": pde_residual(sysd, regular) if len(regular) >= 3 else None,
        "mean_drift": float(
            np.max(np.abs(snaps[-1].values.mean(axis=0) - snaps[0].values.mean(axis=0)))
        ),
    }
    code = 0
    if args.transport:
        gap = _transport(sysd, eta, args.tau, grid, snaps[-1], args.dt, args.steps)["max_abs"]
        out["transport_gap"] = gap
        code = 2 if gap > tol["transport"] else 0
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fp:
                dump_csv(snaps, fp)
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from exc
        out["csv"] = args.csv
    return out, code


def cmd_report(args):
    doc, sysd, pts = _load(args)
    *norms, rh = _point_values(sysd.conn, pts)(("curvature", "ricci", "s", "ricci_sym"))
    out = {
        "n": doc.n,
        "gamma_symmetry_residual": doc._gamma_residual,
        "norms": {k: _max_abs(v) for k, v in zip(("curvature", "ricci", "s"), norms)},
    }
    out["classify"], ok = _classified(rh)
    bounds = pointwise_symmetry_bounds(sysd, pts[0])
    out["pointwise_bound"] = {
        "depth_1": bounds[1],
        "depth_2": bounds[2],
        "point": [float(v) for v in pts[0]],
    }
    return out, 0 if ok else 2


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# subcommand -> (handler, help, options besides the document file)
COMMANDS = {
    "inspect": (cmd_inspect, "parse a document and report invariants", {}),
    "curvature": (cmd_curvature, "curvature and Ricci data at sample points", {}),
    "classify": (cmd_classify, "degeneration case and dimension bound", {}),
    "check-symmetry": (cmd_check_symmetry, "determining residuals for a field", {
        "--eta": dict(
            required=True,
            help="comma-separated components; write --eta=-y2,y1 when the first starts with '-'",
        ),
    }),
    "bound": (cmd_bound, "pointwise symmetry-dimension bound", {
        "--depth": dict(type=int, default=2, choices=(0, 1, 2)),
        "--at": dict(help="evaluation point, comma-separated"),
    }),
    "canonical": (cmd_canonical, "build a canonical system and self-verify", {}),
    "flatten": (cmd_flatten, "projective flattening pipeline", {
        "--at": dict(help="transport base point"),
        "--u0": dict(help="initial covector values"),
    }),
    "simulate": (cmd_simulate, "method-of-lines evolution", {
        "--grid": dict(type=int, default=64, help=f"grid points, 8 to {GRID_MAX}"),
        "--dt": dict(type=float, required=True),
        "--steps": dict(type=int, required=True),
        "--length": dict(type=float, default=2 * np.pi),
        "--initial": dict(help="semicolon-separated profiles in x"),
        "--transport": dict(
            help="symmetry field for the transport check, comma-separated; "
            "write --transport=-y2,y1 when the first component starts with '-'"
        ),
        "--tau": dict(type=float, default=0.1),
        "--csv": dict(help="write snapshots as CSV"),
    }),
    "report": (cmd_report, "full analysis pipeline", {}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # input errors exit with 1 (argparse's default is 2)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="affsym", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("file")
        for flag, kwargs in options.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        _env_seed()  # a malformed AFFSYM_SEED is input, refused before any work
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        report, code = args.func(args)
        text = render_json(report)
    except (InputError, ExprError) as exc:
        error, code = str(exc), 1
    except RecursionError:
        # the input is at fault: the JSON decoder recurses per nested array
        # or object
        error, code = "input nested too deeply to process", 1
    except (ValueError, RuntimeError) as exc:
        error, code = str(exc), 2
    else:
        sys.stdout.write(text + "\n")
        return code
    sys.stderr.write(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

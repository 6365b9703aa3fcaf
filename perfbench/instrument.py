"""Spans and counters recorded around the calls into affsym's modules.

The library itself carries no instrumentation, so the benchmark wraps the
public entry points of each module from the outside: a wrapper replaces the
function under every name the ``affsym`` modules bind it to, and the
original is put back by ``uninstall``.  Functions that recurse within their
own module (``diff_expr``, ``eval_expr``) are wrapped only where other
modules call them, so one span covers a whole derivative or evaluation.

A span's self time is its duration minus the time of the spans it encloses;
self times over all spans add up to the duration of the outermost spans.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("expr", "tensor", "geometry", "liefn", "symmetry", "pfaff", "canonical", "pdesim", "cli")

# (module, attribute, span name, also patch the defining module).  Attributes
# with a dot are methods patched on their class.
FUNCTIONS = (
    ("expr", "parse_expr", "expr.parse", True),
    ("expr", "diff_expr", "expr.diff", False),
    ("expr", "eval_many", "expr.eval", True),
    ("expr", "eval_many_shared", "expr.eval", True),
    ("expr", "eval_expr", "expr.eval", False),
    ("tensor", "TensorField.evaluate_many", "tensor.evaluate", True),
    ("tensor", "TensorField.evaluate", "tensor.evaluate", True),
    ("tensor", "pushforward", "tensor.pushforward", True),
    ("geometry", "curvature", "geometry.curvature", True),
    ("geometry", "covariant_differential", "geometry.covariant_differential", True),
    ("geometry", "ricci_and_s", "geometry.ricci", True),
    ("geometry", "structure_residual", "geometry.structure", True),
    ("geometry", "Connection.evaluate_many", "geometry.connection_evaluate", True),
    ("geometry", "transform_system", "geometry.transform_system", True),
    ("liefn", "lie_derivative", "liefn.lie_derivative", True),
    ("symmetry", "classify", "symmetry.classify", True),
    ("symmetry", "pointwise_symmetry_bound", "symmetry.bound", True),
    ("symmetry", "determining_residuals", "symmetry.determining", True),
    ("symmetry", "invariance_suite", "symmetry.invariance", True),
    ("pfaff", "named_system", "pfaff.build", True),
    ("pfaff", "PfaffProblem.rhs_values", "pfaff.rhs", True),
    ("pfaff", "pfaff_integrate", "pfaff.transport", True),
    ("pfaff", "solve_ivp", "pfaff.solver", True),
    ("canonical", "build_system", "canonical.build", True),
    ("pdesim", "evolve", "pdesim.evolve", True),
    ("pdesim", "_coeff_evaluators", "pdesim.coeff", True),
    ("cli", "main", "cli.main", True),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in FUNCTIONS))


def _points_of(args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs.get("points", kwargs.get("point"))
    shape = getattr(pts, "shape", None)
    if shape is not None and len(shape) == 2:
        return shape[0]
    return 1


class Tracer:
    """Collects spans (when ``timing``), call counts and work counters.

    With ``collect_roots`` set, every expression handed to the evaluator is
    remembered until ``take_roots`` so the caller can measure the DAGs an
    operation evaluated.
    """

    def __init__(self, timing=True, collect_roots=False):
        self.timing = timing
        self.collect_roots = collect_roots
        self.active = True
        self.calls = Counter()
        self.counts = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []  # (seq, parent_seq, name, start, end, op)
        self.op = -1
        self._stack = []  # [seq, child_time]
        self._seq = 0
        self._roots = {}
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        self.calls[name] += 1
        if not self.timing:
            return fn(*args, **kwargs)
        seq = self._seq
        self._seq += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [seq, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            d = t1 - t0
            self.incl[name] += d
            self.self_time[name] += d - frame[1]
            if self._stack:
                self._stack[-1][1] += d
            self.spans.append((seq, parent, name, t0, t1, self.op))

    def _wrap(self, name, attr, fn):
        tracer = self
        if name == "expr.eval":
            single = attr in ("eval_many", "eval_expr")

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tracer.counts["expr.eval.points"] += _points_of(args, kwargs)
                if tracer.collect_roots:
                    exprs = [args[0]] if single else list(args[0])
                    for e in exprs:
                        tracer._roots[id(e)] = e
                return tracer._record(name, fn, args, kwargs)

        elif name == "pdesim.evolve":

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                grid = args[1] if len(args) > 1 else kwargs["grid"]
                steps = args[3] if len(args) > 3 else kwargs["steps"]
                tracer.counts["pdesim.rk4.steps"] += steps
                tracer.counts["pdesim.point_steps"] += steps * grid.N
                return tracer._record(name, fn, args, kwargs)

        elif name == "pfaff.solver":

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                sol = tracer._record(name, fn, args, kwargs)
                tracer.counts["pfaff.solver.nfev"] += int(sol.nfev)
                return sol

        elif name == "pdesim.coeff":

            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def coeffs(values):
                    if not tracer.active:
                        return inner(values)
                    return tracer._record(name, inner, (values,), {})

                return coeffs

        else:

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                return tracer._record(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        """Replace every wrapped function in the affsym modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("affsym")
        mods = {m: importlib.import_module(f"affsym.{m}") for m in MODULES}
        for home, attr, name, patch_home in FUNCTIONS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[home], cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, meth, fn))
                continue
            fn = getattr(mods[home], attr)
            wrapper = self._wrap(name, attr, fn)
            for mname, mod in [("", package)] + list(mods.items()):
                if mname == home and not patch_home:
                    continue
                if mod.__dict__.get(attr) is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved = []

    # -- expression DAG sizes -------------------------------------------------

    def take_roots(self):
        roots = list(self._roots.values())
        self._roots = {}
        return roots


def dag_sizes(roots):
    """(nodes by identity, structurally distinct nodes) reachable from roots.

    Structural identity interns each node on (op, value, index, interned
    children), which is what a hash-consing constructor would share.
    """
    uid = {}
    table = {}
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in uid:
                continue
            if not ready:
                stack.append((node, True))
                stack.extend((a, False) for a in node.args if id(a) not in uid)
                continue
            key = (node.op, node.value, node.index, tuple(uid[id(a)] for a in node.args))
            uid[id(node)] = table.setdefault(key, len(table))
    return len(uid), len(table)

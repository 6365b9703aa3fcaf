"""Record every CLI subcommand's exit code, stdout and error message on every
fixture, and every demo's exit code and stdout, and diff two such records, to
show that a change leaves the answers unchanged.

    python tools/compare_cli.py run SRC_DIR OUT.json     # SRC_DIR holds affsym/
    python tools/compare_cli.py diff BEFORE.json AFTER.json

It runs 196 commands and the six demos: 153 commands on fixtures/ (18 on
each fixture, two more on TRANSPORT_1024, one on PADDED_1001, one on
REFUSED_BLOW_UP, one at the smallest grid on SMALLEST_8, and two at
extreme grid lengths, one whose --csv cannot be written and one whose
--dt times --steps overflows on EXTREME_LENGTH), 20 on HOSTILE, 6 on
WIDE, 12 on SIGNED, 2 on TIGHT and 3 on MAPPED.  The second command on
TRANSPORT_1024 takes a step beyond the stability heuristic at grid 32, so
both of its evolutions, the flowed grid's too, warn for the CLI's line.

Each record holds the exit code, stdout, last error line, whether a traceback
was printed, each warning other than the stability heuristic's ("warnings",
as the digest below has them: none is expected) and, for a command with
output, whether its stdout is strict JSON ("strict_json": no NaN or
Infinity).  The other stderr lines (warnings,
usage) are recorded as their count and a sha256 ("stderr_lines",
"stderr_sha256"), a warning's location in SRC_DIR written as
SRC_PLACEHOLDER and its file without the line number, and without the
source line that a warning echoes under its first line: a new warning, or
one with another text or file, shows as a difference, and a moved one, or
a reworded call that emits it, does not.  The grid-1024 `simulate`
commands also write their snapshots with `--csv` into a temporary
directory (one of them, on TRANSPORT_1024, also runs the transport check
of a translation, whose grid flows run a Program on the 1024 points
between evolve's runs and whose transport_gap is printed to 17 digits), and
so does one at grid 1001 on PADDED_1001, where the simulator's rows end in
padding, and one at grid 8 on SMALLEST_8, where ghost columns and
padding are a large share of each row;
the record holds the file's sha256 ("csv_sha256"), and its stdout names
the file as CSV_PLACEHOLDER.  Every snapshot value is printed to 17 digits
there, so a change in the last bit of a simulated value shows even where
the summaries in stdout (pde_residual, mean_drift) hide it.  Hostile documents (HOSTILE)
also run, each through its own commands: two whose A is not finite at a grid
value, a coefficient with a digit that is not decimal, a 100,000-deep nest
of parentheses, a pole where a flatten transport starts, an operator field
whose determinant overflows, heisenberg's connection with Gamma^2_11 =
1e200*y1*y1, whose nabla(beta) overflows in flatten's precondition, an
intermediate canonical spec at n = 1, a
connection whose Taylor coefficients cancel at the bound's point, one whose
derivative is not finite at a sample point, one whose curvature
overflows, a constant-curvature spec whose epsilons are JSON
booleans, and an explicit document and a canonical spec whose dimension n
is beyond the largest supported.  No fixture has n = 4, so three documents
there (WIDE) run too: the constant-curvature spec with the default epsilons
and with [1, 1, -1, -1] (check-symmetry with a rotation, canonical) and an intermediate spec with
m = 2 (check-symmetry, bound); their invariance values are at rounding
level, so they pin the suite's bits at n = 4.  Five more (SIGNED) sample
points with 0.0 and -0.0 coordinates, where the second derivatives' signed
zeros show: the constant-curvature specs at n = 3 and in 2-D
(check-symmetry with a rotation, canonical; in 2-D also with the rotation
written -y2 as y2/(-1), a quotient by the constant -1, whose squared
denominator folds to ONE), and a radial 2-D document,
A = f(y1^2 + y2^2) I with f a sum of exp, sqrt, ln, sin and cos
(check-symmetry with the rotation, which takes second derivatives through
pow and every function, report, and a grid-64 `simulate` with --csv, whose
A is not constant, so the stability limit in its stdout and the values
of the coefficient program's function nodes in its CSV are pinned to 17
digits); the 2-D spec and the radial document
also sample one point alone, so the second-order walk runs at P = 1.  One
more (TIGHT) is TRANSPORT_1024's document with a `symmetry` tolerance of
1e-30, which no residual of the field 1e-9*y1 meets: `check-symmetry` and
`simulate --transport` must both refuse it.  The last one (MAPPED) is the
2-D constant-curvature spec carried through a shear of y1 along y2, its
coefficients printed by to_string as a point-mapped document is, so each
Gamma entry spells the same parenthesised groups out many times (report,
check-symmetry with the pushed-forward rotation, bound --depth 2).  It is
kept as data beside this tool, tools/mapped_constcurv_2d.json, so both
checkouts parse the same bytes.  The other four sets are written to the
temporary directory, not to fixtures/, which the tests iterate over.  Each command and demo runs in a fresh interpreter with
PYTHONPATH=SRC_DIR, so two checkouts (say the parent commit and a change)
can be compared from one place.  The demos are those of the
checkout that holds SRC_DIR, in SRC_DIR/../demos.  `flatten` on
constcurv_n3.json is slow (minutes) on older trees.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
MAIN = "import sys; from affsym.cli import main; sys.exit(main(sys.argv[1:]))"
CSV_PLACEHOLDER = "<csv>"  # in argv, replaced by a temporary file's path
SRC_PLACEHOLDER = "<src>"  # SRC_DIR in a warning's location, in the stderr lines hashed
INSPECT_SIMULATE = (["inspect"], ["simulate", "--grid", "16", "--dt", "0.001", "--steps", "4"])
# (document, commands) by file name.  The first two divide by zero and raise
# zero to a negative power where y1 = 0, which the default initial profile
# puts on a grid point.  'y²' must be a bad expression (exit 1), the nest
# must parse (exit 0), and flatten's transport from y1 = 0, where the first
# slope is infinite, must end in a step underflow (exit 2), not a traceback,
# and print no warning.  On heisenberg's A and Gamma with Gamma^2_11 =
# 1e200*y1*y1, nabla(beta) is inf, and flatten must report its precondition
# failed (exit 2) and print no warning.  det A overflows on the constant-curvature spec with
# a = b = 1e300, which must not warn; the intermediate spec at n = 1 has no
# structure check, which is an input error (exit 1).  At y1 = 1e-100 the
# chain rule of cos(sqrt(1e-80 + y1)) sums terms of 1.25e79 that cancel, and
# the pointwise bound must refuse (exit 1), not print the rounding's rank.
# sqrt(y1) is finite at the sample point y1 = 0 and its derivative is not,
# which report, classify and check-symmetry must refuse naming the node
# (exit 1); on the 1e200*y1 connection Gamma and its derivatives are
# finite and R's products overflow, which report must refuse naming the
# field and the point (exit 1).  JSON booleans are no epsilons, although
# True == 1 in Python (exit 1).  A dimension beyond the ceiling is refused
# before anything of size n is built (exit 1), where Gamma's n^3 entries
# would not fit in memory and numpy would refuse a canonical array's size.
BRANCH_GAMMA = {"1": [["sqrt(y1)", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "0"]]}
OVERFLOW_GAMMA = {"1": [["1e200*y1", "0"], ["0", "0"]], "2": [["0", "1e200*y2"], ["1e200*y2", "0"]]}
D = "(1 + y1^2 + y2^2)"
HEISENBERG_OVERFLOW_GAMMA = {
    "1": [[f"-2*y1/{D}", f"-2*y2/{D}"], [f"-2*y2/{D}", f"2*y1/{D}"]],
    "2": [["1e200*y1*y1", f"-2*y1/{D}"], [f"-2*y1/{D}", f"-2*y2/{D}"]],
}
HOSTILE = {
    "hostile_inverse.json": ({"n": 2, "A": [["1", "1/y1"], ["0", "1"]]}, INSPECT_SIMULATE),
    "hostile_negative_power.json": ({"n": 1, "A": [["y1^-3"]]}, INSPECT_SIMULATE),
    "hostile_superscript.json": ({"n": 1, "A": [["y²"]]}, (["inspect"],)),
    "hostile_deep_nest.json": (
        {"n": 1, "A": [["(" * 100_000 + "1" + ")" * 100_000]]}, (["inspect"],)
    ),
    "hostile_pole.json": (
        {"n": 2, "A": [["1", "0"], ["0", "1"]], "Gamma": {"2": [["1/y1", "0"], ["0", "0"]]}},
        (["flatten", "--at", "0,0.1", "--u0", "0.5,0.5"],),
    ),
    "hostile_flatten_overflow.json": (
        {"n": 2, "A": [["0", "-1"], ["1", "0"]], "Gamma": HEISENBERG_OVERFLOW_GAMMA}, (["flatten"],)
    ),
    "hostile_det_overflow.json": (
        {"canonical": {"kind": "constcurv_2d_22_14", "n": 2, "a": 1e300, "epsilons": [-1, -1], "b": 1e300}},
        (["check-symmetry", "--eta=-y2,y1"], ["inspect"]),
    ),
    "hostile_canonical_n1.json": (
        {"canonical": {"kind": "intermediate_17_19", "n": 1, "m": 1, "u": ["y1"]}},
        (["canonical"],),
    ),
    "hostile_cancellation.json": (
        {
            "n": 2,
            "A": [["1", "0"], ["0", "1"]],
            "Gamma": {"2": [["0", "0"], ["0", "cos(sqrt(1e-80 + y1))"]]},
            "sample": [[1e-100, 0.1]],
        },
        (["bound", "--depth", "2", "--at", "1e-100,0.1"], ["report"]),
    ),
    "hostile_branch.json": (
        {"n": 2, "A": [["1", "0"], ["0", "1"]], "Gamma": BRANCH_GAMMA, "sample": [[0.0, 0.1], [0.2, 0.3]]},
        (["report"], ["classify"], ["check-symmetry", "--eta=1,0"]),
    ),
    "hostile_overflow.json": ({"n": 2, "A": [["1", "0"], ["0", "1"]], "Gamma": OVERFLOW_GAMMA}, (["report"],)),
    "hostile_epsilons_bool.json": (
        {"canonical": {"kind": "constcurv_22_13", "n": 2, "epsilons": [True, True]}}, (["inspect"],)
    ),
    "hostile_dimension.json": ({"n": 100_000}, (["inspect"],)),
    "hostile_dimension_canonical.json": (
        {"canonical": {"kind": "maximal_7_11", "n": 10_000_000}}, (["inspect"],)
    ),
}

CONSTCURV_N4 = (["check-symmetry", "--eta=-y2,y1,0,0"], ["canonical"])
WIDE = {
    "n4_constcurv.json": ({"canonical": {"kind": "constcurv_22_13", "n": 4}}, CONSTCURV_N4),
    "n4_constcurv_split.json": (
        {"canonical": {"kind": "constcurv_22_13", "n": 4, "epsilons": [1, 1, -1, -1]}}, CONSTCURV_N4
    ),
    "n4_intermediate.json": (
        {"canonical": {"kind": "intermediate_17_19", "n": 4, "m": 2, "u": ["y1", "y2"]}},
        (["check-symmetry", "--eta=0,0,y4,-y3"], ["bound"]),
    ),
}
# Sample points with coordinates 0.0 and -0.0, where a term the trees fold
# away (x + 0, 0*x) would carry the other sign of zero into the suite's and
# canonical's second derivatives.
# f(s) I with s = y1^2 + y2^2, and Gamma^i_jk = (y_j d_ik + y_k d_ij) h(s):
# the rotation is a symmetry, and its invariance suite takes second
# derivatives through pow, exp, ln, sqrt, sin and cos nodes
RADIAL_S = "(y1^2 + y2^2)"
RADIAL_F = f"(exp({RADIAL_S}) + sqrt(1 + {RADIAL_S}) + ln(2 + {RADIAL_S}) + sin({RADIAL_S}) + cos({RADIAL_S}))"
RADIAL_H = (
    f"((exp({RADIAL_S}) + 1/(2*sqrt(1 + {RADIAL_S})) + 1/(2 + {RADIAL_S}) + cos({RADIAL_S}) - sin({RADIAL_S}))"
    f"/{RADIAL_F})"
)
RADIAL = {
    "n": 2,
    "A": [[RADIAL_F, "0"], ["0", RADIAL_F]],
    "Gamma": {
        "1": [[f"2*y1*{RADIAL_H}", f"y2*{RADIAL_H}"], [f"y2*{RADIAL_H}", "0"]],
        "2": [["0", f"y1*{RADIAL_H}"], [f"y1*{RADIAL_H}", f"2*y2*{RADIAL_H}"]],
    },
}
SIGNED = {
    "signed_constcurv_n3.json": (
        {
            "canonical": {"kind": "constcurv_22_13", "n": 3},
            "sample": [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.1, -0.2, 0.25]],
        },
        (["check-symmetry", "--eta=-y2,y1,0"], ["canonical"]),
    ),
    "signed_constcurv_2d.json": (
        {"canonical": {"kind": "constcurv_2d_22_14", "n": 2}, "sample": [[0.0, -0.0], [-0.0, 0.0], [0.1, -0.2]]},
        (["check-symmetry", "--eta=-y2,y1"], ["check-symmetry", "--eta=y2/(-1),y1"], ["canonical"]),
    ),
    "signed_radial.json": (
        {**RADIAL, "sample": [[0.0, -0.0], [-0.0, 0.0], [0.1, -0.2]]},
        (
            ["check-symmetry", "--eta=-y2,y1"],
            ["report"],
            # A is not constant: the stability limit is taken at the grid,
            # and the CSV holds the program's function nodes' values
            ["simulate", "--grid", "64", "--dt", "5e-4", "--steps", "8", "--csv", CSV_PLACEHOLDER],
        ),
    ),
    "signed_constcurv_2d_one_point.json": (
        {"canonical": {"kind": "constcurv_2d_22_14", "n": 2}, "sample": [[-0.0, 0.0]]},
        (["check-symmetry", "--eta=-y2,y1"], ["canonical"]),
    ),
    "signed_radial_one_point.json": (
        {**RADIAL, "sample": [[0.0, -0.0]]},
        (["check-symmetry", "--eta=-y2,y1"], ["report"]),
    ),
}


# constcurv_2d_22_14 (a = 1, b = 0.5) carried by transform_system through the
# point map y1 -> y1 + 0.2*y2^2 - 0.17*y2, its coefficients printed by
# to_string, and the rotation -y2, y1 pushed forward by that map
MAPPED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mapped_constcurv_2d.json")
MAPPED_ETA = "-y2 + (y1 - (0.2*y2^2 - 0.17*y2))*(0.2*(2*y2) - 0.17),y1 - (0.2*y2^2 - 0.17*y2)"


# the translation y1 -> y1 + tau passes the determining equations here
TRANSPORT_1024 = "intermediate_const_u.json"
# TRANSPORT_1024's document with a symmetry tolerance below 1e-9*y1's
# res_Gamma (2e-9), by which both commands that judge a field refuse it
TIGHT_ETA = "1e-9*y1,0,0"
TIGHT = {
    "tight_const_u.json": (
        {
            "canonical": {"kind": "intermediate_17_19", "n": 3, "a": 1.0, "m": 1, "u": ["1"]},
            "tolerances": {"symmetry": 1e-30},
        },
        (
            ["check-symmetry", "--eta=" + TIGHT_ETA],
            ["simulate", "--grid", "32", "--dt", "1e-3", "--steps", "2", "--transport=" + TIGHT_ETA],
        ),
    ),
}
# 1001 points are not a whole number of 64-byte cache lines, so every row of
# the simulator's ghost block ends in padding; n = 3 with a curved connection
PADDED_1001 = "constcurv_n3.json"
# the translation is no symmetry there and the per-fixture step 0.2 blows
# up: simulate --transport judges the field before it evolves anything
REFUSED_BLOW_UP = "constcurv_n3.json"
# the smallest grid, n = 2 with a complex spectrum of A
SMALLEST_8 = "heisenberg.json"
# lengths whose grid spacing squared overflows and underflows at grid 16
EXTREME_LENGTH = "heat_n1.json"


def commands(tmp):
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
        n = doc["n"] if "n" in doc else doc["canonical"]["n"]
        trans = ",".join(["1"] + ["0"] * (n - 1))
        rot = ",".join(["-y2", "y1"] + ["0"] * (n - 2)) if n >= 2 else "y1"
        at = ",".join(["0.1"] * n)
        initial = ";".join(["0.1*exp(-x^2)"] + ["0.05*cos(x)"] * (n - 1))
        # periodic and transcendental; on every fixture the stability
        # heuristic at grid 1024 stays above 1.3e-5, so dt = 5e-6 is stable
        smooth = ";".join(
            ["0.1*sin(x) + 0.05*exp(cos(x))"]
            + [f"0.05*cos({k}*x) - 0.02*ln(2 + sin(x))" for k in range(2, n + 1)]
        )
        for argv in (
            ["inspect"],
            ["curvature"],
            ["classify"],
            ["check-symmetry", "--eta=" + trans],
            ["check-symmetry", "--eta=" + rot],
            ["bound"],
            ["bound", "--depth", "0", "--at", at],
            ["bound", "--depth", "1", "--at", at],
            ["bound", "--depth", "2", "--at", at],
            ["canonical"],
            ["report"],
            ["flatten"],
            ["flatten", "--at", at],
            ["simulate", "--grid", "32", "--dt", "0.0005", "--steps", "8"],
            ["simulate", "--grid", "16", "--dt", "0.001", "--steps", "8", "--transport=" + trans],
            ["simulate", "--grid", "16", "--dt", "0.001", "--steps", "4", "--initial", initial],
            ["simulate", "--grid", "32", "--dt", "0.2", "--steps", "100"],  # blows up
            [
                "simulate", "--grid", "1024", "--dt", "5e-6", "--steps", "4", "--initial", smooth,
                "--csv", CSV_PLACEHOLDER,
            ],
        ):
            yield name, [argv[0], path] + argv[1:]
        if name == TRANSPORT_1024:
            yield name, [
                "simulate", path, "--grid", "1024", "--dt", "5e-6", "--steps", "4", "--initial", smooth,
                "--transport=" + trans, "--csv", CSV_PLACEHOLDER,
            ]
            # both evolutions warn, the flowed grid's too, for cmd_simulate
            yield name, ["simulate", path, "--grid", "32", "--dt", "0.02", "--steps", "2", "--transport=" + trans]
        if name == PADDED_1001:
            yield name, [
                "simulate", path, "--grid", "1001", "--dt", "5e-6", "--steps", "4", "--initial", smooth,
                "--csv", CSV_PLACEHOLDER,
            ]
        if name == SMALLEST_8:
            yield name, [
                "simulate", path, "--grid", "8", "--dt", "0.001", "--steps", "4", "--initial", smooth,
                "--csv", CSV_PLACEHOLDER,
            ]
        if name == REFUSED_BLOW_UP:
            yield name, [
                "simulate", path, "--grid", "32", "--dt", "0.2", "--steps", "100", "--transport=" + trans
            ]
        if name == EXTREME_LENGTH:
            for length in ("1e300", "1e-300"):
                yield name, [
                    "simulate", path, "--dt", "1e-3", "--steps", "2", "--grid", "16", "--length", length
                ]
            # a directory is no file to write: the error line names "." in
            # every run, where a temporary path would differ
            yield name, ["simulate", path, "--dt", "1e-3", "--steps", "2", "--grid", "16", "--csv", "."]
            # t = dt*steps overflows: refused before the evolution (exit 1)
            yield name, ["simulate", path, "--dt", "1e308", "--steps", "2", "--grid", "16", "--initial", "1"]
    for name, (doc, argvs) in {**HOSTILE, **WIDE, **SIGNED, **TIGHT}.items():
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
        for argv in argvs:
            yield name, [argv[0], path] + argv[1:]
    for argv in (["report"], ["check-symmetry", "--eta=" + MAPPED_ETA], ["bound", "--depth", "2"]):
        yield os.path.basename(MAPPED), [argv[0], MAPPED] + argv[1:]


def demos(src):
    folder = os.path.join(os.path.abspath(src), "..", "demos")
    for name in sorted(os.listdir(folder)) if os.path.isdir(folder) else ():
        if name.endswith(".py"):
            yield "demo " + name, [os.path.join(folder, name)]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """True when text parses as JSON with no NaN or Infinity."""
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return False
    return True


# a warning's first line, "FILE.py:LINE: CATEGORY: TEXT" (with no LINE where
# FILE is in SRC_DIR, once written as SRC_PLACEHOLDER); the source line it
# echoes follows, indented by two spaces
WARNING = re.compile(r"\.py(:\d+)?: \w+: ")
# the one warning a command may print: an evolution's step beyond the
# stability heuristic (the --dt 0.2 commands, and both evolutions of the
# second TRANSPORT_1024 one)
STABILITY = re.compile(r"time step \S+ exceeds the stability heuristic")


def _without_echoes(lines):
    """stderr's lines without the source line that each warning echoes."""
    out, echo = [], False
    for line in lines:
        if not (echo and line.startswith("  ")):
            out.append(line)
        echo = WARNING.search(line) is not None
    return out


def run(src, out_path):
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("AFFSYM_SEED", None)
    location = re.compile(re.escape(src) + r"(\S*?\.py):\d+:")
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        cli = (
            (" ".join([argv[0], name] + argv[2:]), ["-c", MAIN] + argv)
            for name, argv in commands(tmp)
        )
        csv = os.path.join(tmp, "snapshots.csv")
        for key, args in [*cli, *demos(src)]:
            t0 = time.perf_counter()
            argv = [csv if a == CSV_PLACEHOLDER else a for a in args]
            proc = subprocess.run([sys.executable] + argv, env=env, capture_output=True, text=True)
            digest = None
            if os.path.exists(csv):
                with open(csv, "rb") as fp:
                    digest = hashlib.sha256(fp.read()).hexdigest()
                os.remove(csv)
            errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
            other = [
                location.sub(SRC_PLACEHOLDER + r"\1:", line)
                for line in _without_echoes(proc.stderr.splitlines())
                if not line.startswith("error:")
            ]
            record[key] = {
                "code": proc.returncode,
                # the path is JSON-escaped in a report
                "stdout": proc.stdout.replace(json.dumps(csv)[1:-1], CSV_PLACEHOLDER),
                "csv_sha256": digest,
                "error": errors[-1] if errors else None,
                "stderr_lines": len(other),
                "stderr_sha256": hashlib.sha256("\n".join(other).encode()).hexdigest(),
                "traceback": "Traceback" in proc.stderr,
                "warnings": [w for w in other if WARNING.search(w) and not STABILITY.search(w)],
                # a CLI report must be JSON without NaN or Infinity; demos print text
                "strict_json": (
                    strict_json(proc.stdout) if proc.stdout and not key.startswith("demo ") else None
                ),
                "seconds": round(time.perf_counter() - t0, 2),
            }
            print(key, proc.returncode, record[key]["seconds"], flush=True)
    with open(out_path, "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)


def diff(before_path, after_path):
    with open(before_path, encoding="utf-8") as fp:
        before = json.load(fp)
    with open(after_path, encoding="utf-8") as fp:
        after = json.load(fp)
    # .get: records from older versions lack "error", "csv_sha256" and the
    # demos; the stderr fields are compared only where both records have them
    fields = ("code", "stdout", "error", "csv_sha256")
    stderr_fields = ("stderr_lines", "stderr_sha256")
    keys = dict.fromkeys([*before, *after])
    pairs = {k: (before.get(k, {}), after.get(k, {})) for k in keys}

    def stderr_differs(b, a):
        return any(f in b and f in a and b[f] != a[f] for f in stderr_fields)

    differ = [
        k for k, (b, a) in pairs.items()
        if any(b.get(f) != a.get(f) for f in fields) or stderr_differs(b, a)
    ]
    ndemos = sum(k.startswith("demo ") for k in keys)
    print(
        f"{len(keys) - ndemos} commands and {ndemos} demos, {len(differ)} differ in exit code, "
        "stdout, error message, CSV digest or other stderr lines"
    )
    for k in differ:
        b, a = pairs[k]
        print("DIFF", k, b.get("code"), a.get("code"))
        if b.get("error") != a.get("error"):
            print("  before:", b.get("error"))
            print("  after: ", a.get("error"))
        if stderr_differs(b, a):
            print(f"  other stderr lines: {b['stderr_lines']} before, {a['stderr_lines']} after")
    for label, rec in (("before", before), ("after", after)):
        tracebacks = [k for k, v in rec.items() if v["traceback"]]
        warned = [k for k, v in rec.items() if v.get("warnings")]  # older records have none
        total = sum(v["seconds"] for v in rec.values())
        print(
            f"{label}: {total:.1f} s in total, tracebacks: {tracebacks or 'none'}, "
            f"unexpected warnings: {warned or 'none'}"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)

"""List the statements of src/affsym that the tier-1 suite never runs.

    python tools/never_run.py [PYTEST_ARGS...]

It runs the tier-1 suite (tests/, or the pytest arguments given) in this
interpreter under ``sys.settrace``, recording each line executed in a file
of src/affsym, then prints, module by module, the statements none of whose
own lines ran: a compound statement's own lines are those before its body,
with a decorated definition's decorators; docstrings are not statements.
No coverage package is needed.  The last line counts the statements never
run against all of them.

Each statement never run must be in the allowlist, tools/never_run_allowed.json:
a list of {"module", "statement", "reason"}, keyed by the module's file name
and the statement's first line, stripped, so that moving code does not
change it; a text that two statements share is listed once for each.  A
statement never run that is not listed is marked NEW, and an entry that no
statement never run matches is printed as STALE.  The exit
code is pytest's where that is not 0, else 1 if anything is NEW or STALE
(the allowlist is for the whole suite: a subset of it leaves more unrun).

``test_point_values_leave_nothing_to_the_cyclic_gc`` is deselected: the
tracer holds frames alive, so the cyclic GC finds what the test says it
must not.  Tracing every line makes the suite several times slower, so
this runs in a CI job of its own, not in tier-1.
"""

import ast
import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "affsym")
DESELECT = "tests/test_point_values.py::test_point_values_leave_nothing_to_the_cyclic_gc"
ALLOWED = os.path.join(ROOT, "tools", "never_run_allowed.json")


def statements(source):
    """Each statement of a module's source as (first line, own lines)."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and ast.get_docstring(node, clean=False) is not None
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = [s.lineno for field in ("body", "handlers", "orelse", "finalbody", "cases")
                 for s in getattr(node, field, ()) if hasattr(s, "lineno")]
        end = min(inner) - 1 if inner else node.end_lineno
        out.append((node.lineno, range(start, max(end, start) + 1)))
    return sorted(out)


def main(argv):
    import pytest

    prefix = PACKAGE + os.sep
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT, *(argv or ["tests"])])
    finally:
        sys.settrace(None)
    with open(ALLOWED) as f:
        unmatched = Counter((e["module"], e["statement"]) for e in json.load(f))
    new = 0
    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        lines = source.splitlines()
        stmts = statements(source)
        never = [first for first, own in stmts if not any((path, n) in ran for n in own)]
        total, missed = total + len(stmts), missed + len(never)
        if never:
            print(f"\n{name}: {len(never)} of {len(stmts)} statements never run")
            for first in never:
                key = (name, lines[first - 1].strip())
                listed = unmatched[key] > 0
                unmatched[key] -= listed
                new += not listed
                print(f"  {'     ' if listed else 'NEW  '}{first:5d}  {key[1]}")
    stale = sorted((+unmatched).elements())
    for name, text in stale:
        print(f"STALE  {name}: {text}")
    print(f"\n{missed} of {total} statements never run: {new} new, {len(stale)} allowlist entries stale")
    return int(code) or int(bool(new or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

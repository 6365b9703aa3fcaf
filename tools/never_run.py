"""List the statements of src/affsym that the tier-1 suite never runs.

    python tools/never_run.py [PYTEST_ARGS...]

It runs the tier-1 suite (tests/, or the pytest arguments given) in this
interpreter under ``sys.settrace``, recording each line executed in a file
of src/affsym, then prints, module by module, the statements none of whose
own lines ran: a compound statement's own lines are those before its body,
with a decorated definition's decorators; docstrings are not statements.
No coverage package is needed.  The last line counts the statements never
run against all of them, and the exit code is pytest's.

``test_point_values_leave_nothing_to_the_cyclic_gc`` is deselected: the
tracer holds frames alive, so the cyclic GC finds what the test says it
must not.  Tracing every line makes the suite several times slower, so
this is a tool to run by hand, not a gate.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "affsym")
DESELECT = "tests/test_point_values.py::test_point_values_leave_nothing_to_the_cyclic_gc"


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
                print(f"  {first:5d}  {lines[first - 1].strip()}")
    print(f"\n{missed} of {total} statements never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

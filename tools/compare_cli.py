"""Record every CLI subcommand's exit code, stdout and error message on every
fixture, and diff two such records, to show that a change leaves the answers
unchanged.

    python tools/compare_cli.py run SRC_DIR OUT.json     # SRC_DIR holds affsym/
    python tools/compare_cli.py diff BEFORE.json AFTER.json

Each command runs in a fresh interpreter with PYTHONPATH=SRC_DIR, so two
checkouts (say the parent commit and a change) can be compared from one
place.  `flatten` on constcurv_n3.json is slow (minutes) on older trees.
"""

import json
import os
import subprocess
import sys
import time

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
MAIN = "import sys; from affsym.cli import main; sys.exit(main(sys.argv[1:]))"


def commands():
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
        n = doc["n"] if "n" in doc else doc["canonical"]["n"]
        trans = ",".join(["1"] + ["0"] * (n - 1))
        rot = ",".join(["-y2", "y1"] + ["0"] * (n - 2)) if n >= 2 else "y1"
        at = ",".join(["0.1"] * n)
        for argv in (
            ["inspect"],
            ["curvature"],
            ["classify"],
            ["check-symmetry", "--eta=" + trans],
            ["check-symmetry", "--eta=" + rot],
            ["bound"],
            ["bound", "--depth", "0", "--at", at],
            ["bound", "--depth", "1", "--at", at],
            ["canonical"],
            ["report"],
            ["flatten"],
            ["simulate", "--grid", "32", "--dt", "0.0005", "--steps", "8"],
            ["simulate", "--grid", "16", "--dt", "0.001", "--steps", "8", "--transport=" + trans],
        ):
            yield name, [argv[0], path] + argv[1:]


def run(src, out_path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("AFFSYM_SEED", None)
    record = {}
    for name, argv in commands():
        key = " ".join([argv[0], name] + argv[2:])
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", MAIN] + argv, env=env, capture_output=True, text=True
        )
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        record[key] = {
            "code": proc.returncode,
            "stdout": proc.stdout,
            "error": errors[-1] if errors else None,
            "traceback": "Traceback" in proc.stderr,
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
    fields = ("code", "stdout", "error")  # .get: records from older versions lack "error"
    differ = [
        k
        for k in before
        if any(before[k].get(f) != after[k].get(f) for f in fields)
    ]
    print(f"{len(before)} commands, {len(differ)} differ in exit code, stdout or error message")
    for k in differ:
        print("DIFF", k, before[k]["code"], after[k]["code"])
        if before[k].get("error") != after[k].get("error"):
            print("  before:", before[k].get("error"))
            print("  after: ", after[k].get("error"))
    for label, rec in (("before", before), ("after", after)):
        tracebacks = [k for k, v in rec.items() if v["traceback"]]
        total = sum(v["seconds"] for v in rec.values())
        print(f"{label}: {total:.1f} s in total, tracebacks: {tracebacks or 'none'}")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)

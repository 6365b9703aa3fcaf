"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Oracles: for one operation of every oracle kind, the true answer must
   pass and a deliberately perturbed answer (and a non-finite or failing
   one, where the answer type allows) must be counted as a failure.
2. Counters: two counting runs on the same seed must report identical
   machine-independent counts, for every workload.

Exit code 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

SEED = 1
# label of one operation per oracle kind, taken from the first deck
ORACLE_CASES = {
    "analyze": (
        "report:maximal4:spec",
        "check-symmetry:maximal4:spec",
        "bound:maximal4:spec",
        "canonical:maximal4:spec",
        "report:maximal2:mapped",
        "check-symmetry:intermediate4:mapped",
    ),
    "transport": ("constcurv_22:n2", "covector_14:n2"),
    "simulate": ("heisenberg:N64", "constcurv3:N64"),
}


def wrong_answers(workload, op, answer):
    out = [("perturbed", op.perturb(answer))]
    if workload == "analyze":
        out.append(("exit code 2", (2, answer[1])))
    elif workload == "transport":
        out.append(("non-finite", np.full_like(answer, np.nan)))
    return out


def check_oracles(workdir):
    ok = True
    for name, labels in ORACLE_CASES.items():
        ops = {}
        for op in workloads.make(name, SEED, workdir).deck(0):
            ops.setdefault(op.label, op)
        for label in labels:
            op = ops[label]
            answer = op.run()
            err = op.check(answer)
            good = err is None
            line = f"{name} {label}: true answer {'passes' if good else 'FAILS: ' + err}"
            for what, bad in wrong_answers(name, op, answer):
                caught = op.check(bad) is not None
                good &= caught
                line += f"; {what} answer {'caught' if caught else 'NOT caught'}"
            print(("PASS " if good else "FAIL ") + line)
            ok &= good
    return ok


def count(workload, workdir):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--role", "count",
        "--workload", workload, "--seed", str(SEED), "--workdir", workdir,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout
    line = [ln for ln in out.splitlines() if ln.startswith("RESULT ")][-1]
    return json.loads(line[len("RESULT "):])["counters"]


def check_counts(workdir):
    ok = True
    for name in workloads.WORKLOADS:
        first, second = count(name, workdir), count(name, workdir)
        same = first == second
        diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        print(
            ("PASS " if same else "FAIL ")
            + f"{name}: two counting runs on seed {SEED} "
            + ("agree on all %d counters" % len(first) if same else f"differ on {diff}")
        )
        ok &= same
    return ok


def main():
    workdir = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ok = check_oracles(workdir)
        ok &= check_counts(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

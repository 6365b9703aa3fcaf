"""One benchmark process.  run.py starts it with a role:

  setup  import affsym, build the first deck's inputs, report, exit;
  count  as setup, then run the first deck once with counters and DAG-size
         measurement (no timing, no oracles: the time or trace role checks
         the same inputs), the machine-independent numbers;
  time   as setup, then run round(seconds / deck_seconds) whole decks,
         timing every operation between two calibration jobs, and report
         latencies (wall and scaled to the reference speed), failures and
         peak memory;
  trace  as setup, then after one warm-up round alternate untraced and
         traced rounds of the first deck (inputs rebuilt each round), half
         as many pairs as the time role runs decks, and report per-layer
         times per round.

The child prints "READY <json>" when set-up is done, runs one calibration
job right after it (the end of set-up's speed bracket; see calibrate.py),
and prints "RESULT <json>" at the end, both on stdout.
"""

import argparse
import json
import os
import resource
import shutil
import sys
from time import perf_counter

import calibrate

T_START = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def call_op(op, tracer=None):
    """Time op.run (inside the tracer, when one is given); returns
    (latency, answer, error)."""
    if tracer:
        tracer.active = True
    t0 = perf_counter()
    try:
        answer = op.run()
        err = None
    except Exception as exc:  # a failed operation is counted, not fatal
        answer, err = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if tracer:
        tracer.active = False
    return latency, answer, err


def check_op(op, answer, err):
    """Check an answer outside the timed region; None when it passes."""
    if err is None:
        try:
            err = op.check(answer)
        except Exception as exc:
            err = f"oracle raised {type(exc).__name__}: {exc}"
    return err


def run_op(op, tracer=None):
    latency, answer, err = call_op(op, tracer)
    return latency, check_op(op, answer, err)


def _failure(op, err):
    return {"op": op.label, "error": str(err)[:300]}


def count_pass(tracer_mod, ops):
    tracer = tracer_mod.Tracer(timing=False, collect_roots=True)
    tracer.install()
    identity = unique = 0
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            call_op(op, tracer)
            ident, uniq = tracer_mod.dag_sizes(tracer.take_roots())
            identity += ident
            unique += uniq
    finally:
        tracer.uninstall()
    counters = {f"{name}.calls": tracer.calls[name] for name in tracer_mod.SPAN_NAMES}
    counters.update(tracer.counts)
    counters["expr.nodes.identity"] = identity
    counters["expr.nodes.unique"] = unique
    counters.setdefault("pfaff.solver.nfev", 0)
    counters.setdefault("pdesim.rk4.steps", 0)
    return {"counters": dict(sorted(counters.items()))}


def deck_count(workload, seconds):
    return max(1, round(seconds / workload.deck_seconds))


def time_loop(workload, ops, seconds):
    """Run the decks.  Within a deck the operations run back to back with a
    calibration job between each two, by which each latency is scaled to the
    reference speed; the deck's answers are checked after it."""
    latencies, scaled, labels, failures = [], [], [], []
    decks = deck_count(workload, seconds)
    start = perf_counter()
    for index in range(decks):
        if index:
            ops = workload.deck(index)
        answers = []
        before = calibrate.job_s()
        for op in ops:
            latency, answer, err = call_op(op)
            after = calibrate.job_s()
            latencies.append(latency)
            scaled.append(latency * calibrate.scale(before, after))
            labels.append(op.label)
            answers.append((answer, err))
            before = after
        for op, (answer, err) in zip(ops, answers):
            err = check_op(op, answer, err)
            if err is not None:
                failures.append(_failure(op, err))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": len(latencies),
        "failures": failures,
        "latencies_s": latencies,
        "scaled_s": scaled,
        "labels": labels,
        "decks": decks,
        "loop_s": perf_counter() - start,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def trace_round(tracer_mod, workloads, args, workdir, traced):
    """Build deck 0 afresh and run it; returns wall time outside oracles."""
    tracer = tracer_mod.Tracer(timing=True) if traced else None
    if tracer:
        tracer.install()
    oracle_s = 0.0
    failures = []
    try:
        t0 = perf_counter()
        ops = workloads.make(args.workload, args.seed, workdir).deck(0)
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            t1 = perf_counter()
            latency, err = run_op(op, tracer)
            oracle_s += perf_counter() - t1 - latency
            if err is not None:
                failures.append(_failure(op, err))
        wall = perf_counter() - t0 - oracle_s
    finally:
        if tracer:
            tracer.uninstall()
    return wall, len(ops), failures, tracer


def trace_rounds(tracer_mod, workloads, workload, args, workdir):
    """One warm-up round, then pairs of untraced and traced rounds in
    alternating order, half as many pairs as the time role runs decks."""
    walls = {False: [], True: []}
    attempted = 0
    failures = []
    calls, counts = {}, {}
    incl, self_time = {}, {}
    trace_round(tracer_mod, workloads, args, workdir, False)  # warm-up, not recorded
    rounds = max(1, deck_count(workload, args.seconds) // 2)
    for r in range(rounds):
        order = (False, True) if r % 2 == 0 else (True, False)
        for traced in order:
            wall, n_ops, fails, tracer = trace_round(tracer_mod, workloads, args, workdir, traced)
            walls[traced].append(wall)
            attempted += n_ops
            failures += fails
            if tracer:
                for src, dst in (
                    (tracer.calls, calls),
                    (tracer.counts, counts),
                    (tracer.incl, incl),
                    (tracer.self_time, self_time),
                ):
                    for k, v in src.items():
                        dst[k] = dst.get(k, 0) + v
                if r == 0 and args.spans:
                    with open(args.spans, "w", encoding="utf-8") as fp:
                        json.dump(
                            {"fields": ["seq", "parent", "name", "start", "end", "op"],
                             "spans": tracer.spans},
                            fp,
                        )
    per = 1.0 / rounds
    return {
        "attempted": attempted,
        "failures": failures,
        "rounds": rounds,
        "wall_traced_s": sum(walls[True]) * per,
        "wall_untraced_s": sum(walls[False]) * per,
        "calls": {k: v * per for k, v in calls.items()},
        "counts": {k: v * per for k, v in counts.items()},
        "incl_s": {k: v * per for k, v in incl.items()},
        "self_s": {k: v * per for k, v in self_time.items()},
    }


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--role", choices=("setup", "count", "time", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="trace role: write the first traced round's spans here")
    args = p.parse_args()

    import affsym  # noqa: F401  (timed: the import users pay on every call)
    import affsym.cli  # noqa: F401

    t_import = perf_counter()
    import instrument
    import workloads

    workdir = os.path.join(args.workdir, f"{args.role}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        ops = workload.deck(0)
        t_ready = perf_counter()
        ready = {"import_s": t_import - T_START, "inputs_s": t_ready - t_import}
        print("READY " + json.dumps(ready), flush=True)
        ready_cal = calibrate.job_s()
        if args.role == "setup":
            result = {}
        elif args.role == "count":
            result = count_pass(instrument, ops)
        elif args.role == "time":
            result = time_loop(workload, ops, args.seconds)
        else:
            result = trace_rounds(instrument, workloads, workload, args, workdir)
        result["ready_cal_s"] = ready_cal
        result["env"] = environment()
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

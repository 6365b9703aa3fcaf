"""affsym benchmark launcher.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Runs one workload and prints every metric by name with its unit, then, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.  --out FILE also writes
the full record (samples, counters, environment, failures) for compare.py.

Each run starts fresh worker processes (worker.py) from the pinned
environment below: several that only set up, to measure set-up time; one
that runs the first deck with counters, for the machine-independent
numbers; and one that measures, untraced (--trace 0) or in alternating
untraced and traced rounds (--trace 1).

The end-to-end times are scaled to a reference machine speed by a
calibration job run around every timed interval (calibrate.py); the
unscaled wall times are printed beside them.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze", "transport", "simulate")
SETUP_ONLY_RUNS = 2  # plus the counting and the measuring process: 4 samples
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# machine-independent counters printed with every run
COUNTERS = (
    "expr.nodes.identity",
    "expr.nodes.unique",
    "pfaff.rhs.calls",
    "pfaff.solver.nfev",
    "pdesim.rk4.steps",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env():
    """Single-threaded BLAS/OpenMP; AFFSYM_SEED unset so the library keeps
    its default sample points and only the workload seed varies inputs."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("AFFSYM_SEED", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Worker:
    """A worker process; ``ready_s`` is wall time from spawn to READY and
    ``cal_s`` the calibration job time taken just before the spawn."""

    def __init__(self, role, args, workdir, deadline, extra=()):
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--role", role,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--workdir", workdir,
            *extra,
        ]
        self.cal_s = calibrate.job_s()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=pinned_env(), cwd=ROOT
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            self.finish()
            raise BenchError(f"{role} worker did not finish set-up")
        self.ready = json.loads(line[len("READY "):])

    def finish(self):
        """Wait for exit; returns the RESULT object, if one was printed."""
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        for line in reversed(out.splitlines()):
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        return None


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples
    above it, i.e. the eleventh largest latency."""
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_scaled, setup_wall, timed):
    """Times at the reference speed; the notes give the wall-clock ones."""
    lat, wall = timed["scaled_s"], timed["latencies_s"]
    tail_s, tail_pct = tail(lat)
    wall_tail_s, _ = tail(wall)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup_scaled)} fresh processes; "
        f"wall {statistics.median(setup_wall):.4g} s",
        "ops_per_s": f"{len(lat)} ops in {timed['decks']} decks; "
        f"wall {len(wall) / sum(wall):.4g} 1/s, {sum(wall):.2f} s busy",
        "op_p50_ms": f"{len(lat)} ops; wall {1e3 * statistics.median(wall):.4g} ms",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(lat)} ops; wall {1e3 * wall_tail_s:.4g} ms",
        "peak_rss_mb": "measuring process",
    }
    return values, notes


def per_layer(names, ready, counted, traced):
    counters = counted["counters"]
    calls, counts = traced["calls"], traced["counts"]
    incl, self_s = traced["incl_s"], traced["self_s"]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    derived = {
        "expr.nodes.identity": counters["expr.nodes.identity"],
        "expr.nodes.unique": counters["expr.nodes.unique"],
        "expr.sharing_ratio": ratio(counters["expr.nodes.unique"], counters["expr.nodes.identity"]),
        "expr.eval.points": counts.get("expr.eval.points", 0),
        "pfaff.rhs.calls": counters["pfaff.rhs.calls"],
        "pfaff.rhs.us_per_call": ratio(incl.get("pfaff.rhs", 0.0), calls.get("pfaff.rhs", 0), 1e6),
        "pfaff.solver.nfev": counters["pfaff.solver.nfev"],
        "pdesim.rk4.steps": counters["pdesim.rk4.steps"],
        "pdesim.coeff.share": ratio(incl.get("pdesim.coeff", 0.0), incl.get("pdesim.evolve", 0.0)),
        "pdesim.ns_per_point_step": ratio(
            incl.get("pdesim.evolve", 0.0), counts.get("pdesim.point_steps", 0), 1e9
        ),
        "setup.import_s": statistics.median(r["import_s"] for r in ready),
        "setup.inputs_s": statistics.median(r["inputs_s"] for r in ready),
        "trace.overhead_ratio": ratio(traced["wall_traced_s"], traced["wall_untraced_s"]),
        "trace.wall_s": traced["wall_traced_s"],
        "trace.self_sum_s": sum(self_s.values()),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        else:
            raise BenchError(f"no measurement for per-layer metric {name}")
    # every traced round does the same work, so per-round counts are whole
    for k in values:
        if k.endswith((".calls", ".points")) and float(values[k]).is_integer():
            values[k] = int(values[k])
    return values


def run(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    roles = ["setup"] * SETUP_ONLY_RUNS + ["count", "trace" if args.trace else "time"]
    results, ready_times, setup_scaled, ready = {}, [], [], []
    try:
        for role in roles:
            extra = ()
            if role == "trace" and args.out:
                extra = ("--spans", os.path.splitext(args.out)[0] + ".spans.json")
            w = Worker(role, args, workdir, deadline, extra)
            result = w.finish()
            if result is None:
                raise BenchError(f"{role} worker printed no result")
            results[role] = result
            ready_times.append(w.ready_s)
            setup_scaled.append(w.ready_s * calibrate.scale(w.cal_s, result["ready_cal_s"]))
            ready.append(w.ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted, measured = results["count"], results[roles[-1]]
    failures, attempted = measured["failures"], measured["attempted"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, ready, counted, measured)
        notes = {}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, notes = end_to_end(setup_scaled, ready_times, measured)
    env = dict(
        measured["env"],
        nproc=os.cpu_count(),
        cpu=cpu_model(),
        threads={v: pinned_env()[v] for v in THREAD_VARS},
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
        "notes": notes,
        "counters": counted["counters"],
        "setup_samples_s": ready_times,
        "setup_scaled_s": setup_scaled,
        "env": env,
        "failures": failures[:20],
    }
    if args.trace:
        record["trace_detail"] = {k: v for k, v in measured.items() if k not in ("failures", "env")}
    else:
        record["latencies_s"] = measured["latencies_s"]
        record["scaled_s"] = measured["scaled_s"]
        record["labels"] = measured["labels"]
    return record


def report(record):
    print(
        f"workload {record['workload']} seed {record['seed']} "
        f"seconds {record['seconds']} trace {record['trace']}"
    )
    env = record["env"]
    print(
        f"env python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
        f"nproc {env['nproc']} cpu {env['cpu']!r} blas/omp threads 1"
    )
    for name, m in record["metrics"].items():
        note = record["notes"].get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    rate = record["failed"] / record["attempted"]
    print(f"error_rate {rate:.6g} ({record['failed']} failed of {record['attempted']} checked ops)")
    for name in COUNTERS:
        print(f"counter {name} {record['counters'][name]} (first deck)")
    for f in record["failures"]:
        print(f"failure {f['op']}: {f['error']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result record to this file")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "affsym", "__init__.py")):
        sys.stderr.write("error: affsym sources not found under src/affsym\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    try:
        record = run(args, spec)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(record, fp, indent=1)
    report(record)
    final = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

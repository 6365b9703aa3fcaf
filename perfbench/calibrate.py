"""Speed calibration: the benchmark's timings at a fixed reference speed.

The benchmark runs on small shared virtual machines whose speed changes with
what the rest of the host does.  On the 2-vCPU Intel Xeon VM the benchmark
was defined on, the same work took up to 1.7 times as long from one minute
to the next, in phases of seconds to a minute, on either vCPU, and so did a
fixed pure-Python loop.  Timed by the wall clock, the operations per second
of ten runs of one workload spread by 0.12-0.30 of their median (distance
between the quartiles).

So every timed operation is bracketed by a fixed calibration job that does
not use affsym: build a tuple tree, differentiate it with memo dicts and
evaluate the result at one point, the kind of work affsym's expression layer
does.  An operation's latency is scaled by ``REF_S`` over the mean of the
job times just before and just after it.  A scaled time is what the
operation would have taken with the machine at the speed where the job
takes ``REF_S``; a change to affsym moves it in the same proportion as the
wall time, while a change in machine speed moves the job as well and
cancels.
On that VM the scaling brought the spread of ten runs to 0.02-0.06 for
operations per second and 0.03-0.07 for the median and tail latencies.  The
unscaled wall times are kept beside the scaled ones in every record.
"""

import gc
import random
from time import perf_counter

# Time of one job on the reference VM when it ran at its usual fast speed;
# it only sets the scale of the reported times.
REF_S = 5.0e-3
DEPTH = 9  # 2**9 leaves, about 4,600 tuples built per job
VARS = 4


def _build(rng, depth):
    if depth == 0:
        if rng.random() < 0.6:
            return ("x", rng.randrange(VARS))
        return ("c", rng.random())
    return (rng.choice("+*"), _build(rng, depth - 1), _build(rng, depth - 1))


def _diff(e, i, memo):
    key = id(e)
    if key in memo:
        return memo[key]
    op = e[0]
    if op == "x":
        out = ("c", 1.0 if e[1] == i else 0.0)
    elif op == "c":
        out = ("c", 0.0)
    elif op == "+":
        out = ("+", _diff(e[1], i, memo), _diff(e[2], i, memo))
    else:
        out = ("+", ("*", _diff(e[1], i, memo), e[2]), ("*", e[1], _diff(e[2], i, memo)))
    memo[key] = out
    return out


def _eval(e, point, memo):
    key = id(e)
    if key in memo:
        return memo[key]
    op = e[0]
    if op == "x":
        out = point[e[1]]
    elif op == "c":
        out = e[1]
    elif op == "+":
        out = _eval(e[1], point, memo) + _eval(e[2], point, memo)
    else:
        out = _eval(e[1], point, memo) * _eval(e[2], point, memo)
    memo[key] = out
    return out


def job_s():
    """Run the calibration job once and return its wall time in seconds.

    The garbage collector is paused so that the job does not pay for
    collections of objects the benchmark made before it.
    """
    point = (0.1, 0.2, 0.3, 0.4)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        tree = _build(random.Random(7), DEPTH)
        for i in range(VARS):
            _eval(_diff(tree, i, {}), point, {})
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(before_s, after_s):
    """Factor that takes a wall time bracketed by two job times to the
    reference speed."""
    return REF_S / (0.5 * (before_s + after_s))

"""Explicit Runge-Kutta integration with error control: the Dormand-Prince
5(4) pair, the one integrator behind Pfaff transport and symmetry flows.

The method is the pair of Dormand and Prince, "A family of embedded
Runge-Kutta formulae", J. Comput. Appl. Math. 6 (1980) 19-26, advanced with
the fifth-order solution (local extrapolation).  Step-size control, the
initial step and the RMS error norm follow Hairer, Norsett and Wanner,
"Solving Ordinary Differential Equations I", Sec. II.4; dense output is the
quartic continuous extension of Shampine, "Some Practical Runge-Kutta
Formulas", Math. Comp. 46 (1986) 135-150 (Hairer-Norsett-Wanner II.6).

Every floating-point operation is the one scipy's ``RK45`` performs, on the
same operands in the same order, so steps, ``nfev``, end values and dense
output are bitwise what ``scipy.integrate.solve_ivp(..., method="RK45")``
returns.  Every ``dot`` is the same BLAS call on the same views of the stage
matrix K: the stage sums ``K[:s].T.dot(a)``, the new state's, the error
estimate's and the error norm's ``err.dot(err)``; BLAS kernels may use FMA,
so those sums stay BLAS calls.  The elementwise operations around them take
scipy's operands in scipy's order: ``z*h + y`` for a stage input (scipy's
``y + dot * h``, as IEEE + and * commute), ``max(|y|, |y_new|)*rtol + atol``
for the error scale and ``err*h/scale`` for the weighted error.

A system of a few unknowns spends most of its time in the interpreter
rather than in arithmetic, so the state is kept in the representation of
``y0``, chosen by the caller.  A list of Python floats keeps the state, the
stage inputs handed to ``fun``, the error scale and the blow-up guard on
Python floats: a Python float and a float64 array element are the same IEEE
double under the same correctly rounded + * / and abs, so their bits
match; only the dots make arrays.  Any other y0 is taken as a float64
array, and the elementwise operations run in place on arrays, which pays
on a stacked grid of many unknowns.  The scalars t, h, |h|, the minimum
step, the error norm and the step factors are Python floats on either
path (``math.nextafter`` and ``abs`` are exact, ``math.sqrt`` is correctly
rounded like ``np.sqrt``, and ``**`` calls the same C ``pow``).  They
part from numpy scalars where the initial step divides by zero, which a
Python float refuses: 0.01 / 0 gives inf, as on numpy scalars, and d2's
division by h0 = 0 (an infinite slope at t0) gives inf where numpy gives
nan or inf, which lead to the same step, as d1 is inf there.  |y_new| is
computed once, for the next step's error scale and for the blow-up guard.  Every run carries one
blow-up guard: the first state with max |y| > ``BLOWUP`` ends it with status
1.  A start beyond ``BLOWUP`` ends at t0 without a step; a step that carries
y beyond it ends the run at its upward crossing, found by bisection on the
dense output, where scipy uses Brent's method, so the reported crossing
time can differ in its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import CheckFailed

__all__ = ["IntegrationError", "OdeResult", "solve_ivp"]

C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# (s, weights, node) of the states whose slopes are K[1] .. K[6]: stage s's
# row A[s, :s] at node C[s] for s = 1..5, then the new state, B at node 1
STAGES = [(s, A[s, :s], float(C[s])) for s in range(1, 6)] + [(6, B, 1.0)]
E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
# Shampine's continuous extension: y(t_old + x h) = y_old + h * (K.T @ P) @ [x, x^2, x^3, x^4]
P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
BLOWUP = 1e8  # a run ends where max |y| exceeds this (status 1)
ERROR_EXPONENT = -1 / 5  # -1 / (order of the error estimate + 1)
EPS = np.finfo(float).eps
MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size**0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol, floats):
    """Hairer-Norsett-Wanner's starting step (II.4) from the float64 array
    y0; one call of fun, given a list of floats when ``floats``."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1.tolist() if floats else y1)
    d2 = _rms((f1 - f0) / scale) / h0 if h0 else math.inf  # h0 = 0: an infinite slope
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        # d1 = 0 with d2 nan: numpy's 0.01 / 0.0 is inf, where Python raises
        d = max(d1, d2)
        h1 = (0.01 / d) ** (1 / 5) if d else math.inf
    return min(100 * h0, h1, interval_length)


class DenseOutput:
    """The continuous solution over the accepted steps; ``sol(t)`` -> (n,).
    At a step boundary the earlier step's polynomial is used."""

    def __init__(self, ts, steps):
        self.steps = steps  # (t_old, t, y_old, Q) per accepted step
        self.ascending = ts[-1] >= ts[0]
        self.ts = np.asarray(ts if self.ascending else ts[::-1])

    def __call__(self, t):
        ind = np.searchsorted(self.ts, t, side="left" if self.ascending else "right")
        seg = min(max(ind - 1, 0), len(self.steps) - 1)
        return _interpolate(self.steps[seg if self.ascending else -1 - seg], t)


def _interpolate(step, t):
    t_old, t_new, y_old, Q = step
    h = t_new - t_old
    p = np.cumprod(np.tile((t - t_old) / h, 4))
    y = h * np.dot(Q, p)
    y += y_old
    return y


@dataclass
class OdeResult:
    """t: accepted times (the crossing last when the blow-up guard stopped
    the run); y: (n, len(t)) states; sol: DenseOutput or None; status: 0
    reached the end, 1 blow-up guard, -1 step underflow; nfev: right-hand
    side calls; last_step: size of the last step attempted; n_accepted,
    n_rejected: steps accepted and attempts rejected.  A run that took a step
    has nfev == 2 + 6 * (n_accepted + n_rejected)."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseOutput | None
    status: int
    message: str
    nfev: int
    last_step: float
    n_accepted: int
    n_rejected: int


class IntegrationError(RuntimeError, CheckFailed):
    """An integration that stopped short of its end: the blow-up guard fired
    (status 1) or the step underflowed (status -1).  Carries the status, the
    time reached, the number of right-hand side calls and the size of the
    last step attempted."""

    def __init__(self, message, result):
        super().__init__(message)
        self.status = result.status
        self.t_reached = float(result.t[-1])
        self.nfev = result.nfev
        self.last_step = result.last_step


def _error_array(err, h, abs_y, y_new, rtol, atol):
    """|y_new| and the weighted error err h / (max(|y|, |y_new|) rtol + atol),
    in place in err."""
    abs_y_new = np.abs(y_new)
    scale = np.maximum(abs_y, abs_y_new)
    scale *= rtol
    scale += atol
    err *= h
    err /= scale
    return abs_y_new, err


def _error_floats(err, h, abs_y, y_new, rtol, atol):
    """``_error_array`` on floats: |y_new| as a list, the weighted error as
    the array its norm's dot takes."""
    abs_y_new = [abs(v) for v in y_new]
    try:
        weighted = [
            e * h / ((a if a >= b else b) * rtol + atol)
            for e, a, b in zip(err.tolist(), abs_y, abs_y_new)
        ]
    except ZeroDivisionError:  # a zero scale (atol = 0), where numpy gives inf or nan
        return abs_y_new, _error_array(err, h, np.array(abs_y), np.array(y_new), rtol, atol)[1]
    return abs_y_new, np.array(weighted)


def _excess(y):
    """The blow-up guard's event function, max |y| - BLOWUP."""
    return float(abs(y).max()) - BLOWUP


def _crossing(step):
    """The guard's upward crossing on one step, bisected on its dense output
    to the 4 eps tolerance scipy asks of Brent's method."""
    lo, hi = step[0], step[1]
    g_lo = _excess(_interpolate(step, lo))
    while abs(hi - lo) > 4 * EPS * (1 + abs(hi)):
        mid = 0.5 * (lo + hi)
        g_mid = _excess(_interpolate(step, mid))
        if g_mid == 0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return hi


def solve_ivp(fun, t_span, y0, rtol, atol, dense_output=False):
    """Integrate y' = fun(t, y) over t_span = (t0, tf) from y0.

    A y0 that is a list is integrated on Python floats, and anything else as
    a float64 array (see the module docstring): ``fun(t, y)`` gets y in that
    representation, a list of floats (on which array arithmetic such as
    ``2.0 * y`` fails) or an (n,) array, and returns the slope as an (n,)
    array or a list of n floats; rtol and atol are floats.  The result is
    the same to the bit either way.

    max |y| > BLOWUP ends the run (status 1): at t0 without a step when y0
    is beyond it, else at the crossing of the accepted step that carried y
    beyond it.  A step below ten ulps of t ends it with status -1, as does
    a nan step (from a nan slope at t0, or atol = 0 with a zero component
    of y0).  A non-finite or empty t_span, or a non-finite y0, raises
    ValueError.  The run, ``fun``'s calls included, is under
    ``np.errstate(all="ignore")``: numpy warns of no nan or inf on the way
    to such a status.
    """
    t0, tf = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(tf)):
        raise ValueError(f"the integration interval ({t0}, {tf}) is not finite")
    if t0 == tf:
        raise ValueError("the integration interval is empty")
    floats = type(y0) is list
    if floats:
        y = [float(v) for v in y0]
        y_array = np.array(y)
        abs_y = [abs(v) for v in y]
        error, peak = _error_floats, max
    else:
        y = y_array = np.asarray(y0).astype(float, copy=False)
        abs_y = np.abs(y)
        error, peak = _error_array, np.ndarray.max
    if not np.isfinite(y_array).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if peak(abs_y) > BLOWUP:
        return OdeResult(
            t=np.array([t0]), y=y_array[:, None], sol=None, status=1, message=MESSAGES[1], nfev=0,
            last_step=0.0, n_accepted=0, n_rejected=0,
        )
    # one errstate for the run: a nan or inf in a slope or a stage is
    # reported by the run's status, not by numpy's warnings on the way
    with np.errstate(all="ignore"):
        direction = 1.0 if tf > t0 else -1.0
        towards = direction * math.inf
        f = np.asarray(fun(t0, y), dtype=float)
        h_abs = float(_initial_step(fun, t0, y_array, tf, f, direction, rtol, atol, floats))
        nfev = 2
        n_accepted = n_rejected = 0
        K = np.empty((7, y_array.size))
        K[0] = f  # the slope at the current state, replaced when a step is accepted
        stages = [(s, K[:s].T, a, c) for s, a, c in STAGES]
        K_e = K.T
        root_size = y_array.size**0.5
        t, ts, ys, steps, h = t0, [t0], [y], [], h_abs
        status = None
        while status is None:
            min_step = 10 * abs(math.nextafter(t, towards) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if not h_abs >= min_step:  # a nan step (a nan slope or error scale) too
                    status = -1
                    break
                h = h_abs * direction
                t_new = t + h
                if direction * (t_new - tf) > 0:
                    t_new = tf
                h = t_new - t
                h_abs = abs(h)
                for s, KT, a, c in stages:
                    z = KT.dot(a)
                    if floats:
                        z = [zi * h + yi for zi, yi in zip(z.tolist(), y)]
                    else:
                        z *= h
                        z += y
                    K[s] = fun(t + c * h, z)  # last: y_new at t + 1.0 * h, which is t + h
                y_new = z
                nfev += 6
                abs_y_new, err = error(K_e.dot(E), h, abs_y, y_new, rtol, atol)
                error_norm = math.sqrt(err.dot(err)) / root_size
                if error_norm < 1:
                    factor = MAX_FACTOR if error_norm == 0 else min(
                        MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT
                    )
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                rejected = True
                n_rejected += 1
            if status == -1:
                break
            n_accepted += 1
            t_old, y_old = t, y
            t, y, abs_y = t_new, y_new, abs_y_new
            if direction * (t - tf) >= 0:
                status = 0
            # every earlier state was inside; an accepted state has no nan, as a
            # nan in y_new comes with a nan or inf error norm, which rejects it
            crossed = peak(abs_y) > BLOWUP
            if dense_output or crossed:
                step = (t_old, t, y_old, K.T.dot(P))
                if dense_output:
                    steps.append(step)
                if crossed:
                    t = _crossing(step)
                    y = _interpolate(step, t)
                    status = 1
            K[0] = K[6]
            ts.append(t)
            ys.append(y)
        return OdeResult(
            t=np.array(ts),
            y=np.array(ys).T,
            sol=DenseOutput(ts, steps) if dense_output else None,
            status=status,
            message=MESSAGES[status],
            nfev=nfev,
            last_step=abs(h),
            n_accepted=n_accepted,
            n_rejected=n_rejected,
        )

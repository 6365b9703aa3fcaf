"""Explicit Runge-Kutta integration with error control: the Dormand-Prince
5(4) pair, the one integrator behind Pfaff transport and symmetry flows.

The method is the pair of Dormand and Prince, "A family of embedded
Runge-Kutta formulae", J. Comput. Appl. Math. 6 (1980) 19-26, advanced with
the fifth-order solution (local extrapolation).  Step-size control, the
initial step and the RMS error norm follow Hairer, Norsett and Wanner,
"Solving Ordinary Differential Equations I", Sec. II.4; dense output is the
quartic continuous extension of Shampine, "Some Practical Runge-Kutta
Formulas", Math. Comp. 46 (1986) 135-150 (Hairer-Norsett-Wanner II.6).

Every floating-point operation is the one scipy's ``RK45`` performs, in the
same order and on the same array layouts (stage sums ``np.dot(K[:s].T,
a[:s]) * h``, the 0.9 / 0.2 / 10 step factors, the ``min_step`` rule), so
steps, ``nfev``, end values and dense output are bitwise what
``scipy.integrate.solve_ivp(..., method="RK45")`` returns.  A system of a
few unknowns spends most of its time in the interpreter rather than in
arithmetic, so three things are written for less overhead.  The scalars t,
h, |h|, the minimum step, the error norm and the step factors are Python
floats: a Python float and a numpy float64 scalar are the same IEEE double
under the same operation (``math.nextafter`` and ``abs`` are exact,
``math.sqrt`` is correctly rounded like ``np.sqrt``, and ``**`` calls the
same C ``pow``), so their bits match; the one place they part, 0.01 / 0 in
the initial step, gives inf here as on numpy scalars, where a Python float
would raise.  Each vector sum is made in place from the same BLAS ``dot`` on
the same views: ``z = K[:s].T.dot(a); z *= h; z += y`` is scipy's ``y +
np.dot(K[:s].T, a) * h`` with the operands of the commutative IEEE multiply
and add swapped.  And |y_new| is computed once, for the next step's error
scale and for the blow-up guard.  What remains per step attempt is the
right-hand side's own cost (for a Pfaff transport, one run of its compiled
program at one point and one ``dot``) and about 34 small numpy calls: the
stage sums, the stores into K, the error scale and norm.  Every run carries
one blow-up guard: the first state with max |y| > ``BLOWUP`` ends it with
status 1.  A start beyond ``BLOWUP`` ends at t0 without a step; a step that
carries y beyond it ends the run at its upward crossing, found by bisection
on the dense output, where scipy uses Brent's method, so the reported
crossing time can differ in its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Hairer-Norsett-Wanner's starting step (II.4); one call of fun."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
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


class IntegrationError(RuntimeError):
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

    max |y| > BLOWUP ends the run (status 1): at t0 without a step when y0
    is beyond it, else at the crossing of the accepted step that carried y
    beyond it.  A step below ten ulps of t ends it with status -1.  A
    non-finite or empty t_span, or a non-finite y0, raises ValueError.
    """
    t0, tf = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(tf)):
        raise ValueError(f"the integration interval ({t0}, {tf}) is not finite")
    if t0 == tf:
        raise ValueError("the integration interval is empty")
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if _excess(y) > 0:
        return OdeResult(
            t=np.array([t0]), y=y[:, None], sol=None, status=1, message=MESSAGES[1], nfev=0,
            last_step=0.0, n_accepted=0, n_rejected=0,
        )
    direction = 1.0 if tf > t0 else -1.0
    towards = direction * math.inf
    f = np.asarray(fun(t0, y), dtype=float)
    h_abs = float(_initial_step(fun, t0, y, tf, f, direction, rtol, atol))
    nfev = 2
    n_accepted = n_rejected = 0
    K = np.empty((7, y.size))
    stages = [(s, K[:s].T, A[s, :s], float(C[s])) for s in range(1, 6)]
    K_b, K_e = K[:-1].T, K.T
    root_size = y.size**0.5
    abs_y = np.abs(y)
    t, ts, ys, steps = t0, [t0], [y], []
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, towards) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, KT, a, c in stages:
                y_stage = KT.dot(a)
                y_stage *= h
                y_stage += y
                K[s] = fun(t + c * h, y_stage)
            y_new = K_b.dot(B)
            y_new *= h
            y_new += y
            f_new = K[6] = fun(t + h, y_new)
            nfev += 6
            abs_y_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_y_new)
            scale *= rtol
            scale += atol
            err = K_e.dot(E)
            err *= h
            err /= scale
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
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
        if direction * (t - tf) >= 0:
            status = 0
        crossed = abs_y.max() > BLOWUP  # every earlier state was inside
        if dense_output or crossed:
            step = (t_old, t, y_old, K.T.dot(P))
            if dense_output:
                steps.append(step)
            if crossed:
                t = _crossing(step)
                y = _interpolate(step, t)
                status = 1
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

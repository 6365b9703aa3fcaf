"""Shared plumbing: seeded sample points, the point contract and residual
reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DEFAULT_SEED", "SAMPLE_BOX", "CheckFailed", "InputError", "sample_points", "as_points",
           "ResidualReport", "max_report"]

# Residual checks draw sample points uniformly from [-SAMPLE_BOX, SAMPLE_BOX]^n,
# which keeps the canonical conformal factors strictly positive.  The seed is
# fixed for reproducibility.
DEFAULT_SEED = 1729
SAMPLE_BOX = 0.4

# A document's tolerances by check name, and the library's defaults for them
DEFAULT_TOLERANCES = {
    "symmetry": 1e-8, "structure": 1e-8, "invariance": 1e-7,
    "flatten": 1e-5, "gamma_symmetry": 1e-10, "transport": 1e-6,
}


class CheckFailed(Exception):
    """A check that ran and failed (a blow-up, a refused field, a failed flow);
    each such error keeps its base class too.  The CLI exits 2 on it."""


class InputError(ValueError):
    """Malformed document or flags; the CLI exits 1 on it."""


def sample_points(n, count=20, seed=DEFAULT_SEED):
    """count points uniform in [-0.4, 0.4]^n as an array of shape (count, n)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(count, n))


def as_points(pts, n, one=False):
    """The one check of points for dimension n: ``pts`` as a float array of
    P >= 1 finite points, of shape (P, n), with ``one`` of one finite point,
    of shape (n,), and with ``one=None`` of either, one point where ``pts``
    is one-dimensional.  None gives ``sample_points(n, 20)`` (not with
    ``one``); anything else raises ValueError naming n and the shape, or
    what was given where it has no shape of real numbers: a ragged sequence,
    complex coordinates, or entries that are not numbers."""
    if pts is None and not one:
        return sample_points(n, 20)
    try:
        arr = np.asarray(pts)
    except ValueError:  # numpy refuses a ragged nesting
        arr = None
    if one is None:
        one = arr is not None and arr.ndim == 1
    what = f"a point of shape ({n},)" if one else f"points of shape (P, {n})"
    expected = f"expected {what} for n = {n}, got"
    if arr is None:
        raise ValueError(f"{expected} a ragged sequence")
    if arr.dtype.kind == "c":
        raise ValueError(f"{expected} shape {arr.shape} with complex coordinates")
    try:
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ValueError(f"{expected} a {type(pts).__name__}, not real numbers") from None
    if arr.shape != ((n,) if one else arr.shape[:1] + (n,)):
        raise ValueError(f"{expected} shape {arr.shape}")
    if not arr.size:
        raise ValueError(f"{expected} shape {arr.shape} with no points")
    if not np.isfinite(arr).all():
        raise ValueError(f"{expected} shape {arr.shape} with nan or inf")
    return arr


@dataclass
class ResidualReport:
    """Max-norm of a residual over sample points, with the worst offender.

    ``max_abs`` is the headline number; ``argmax_point`` and
    ``argmax_component`` locate it.  ``details`` carries op-specific extras.
    """

    max_abs: float
    argmax_point: tuple = ()
    argmax_component: tuple = ()
    details: dict = field(default_factory=dict)


def max_report(values, points, details=None):
    """Build a ResidualReport from residual values of shape (P, *component).

    ``values[p]`` holds every residual component at sample point ``points[p]``.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))
        p = int(bad[0][0])
        return ResidualReport(
            float("inf"),
            tuple(points[p]),
            tuple(int(i) for i in bad[0][1:]),
            details or {},
        )
    flat = np.abs(values).reshape(values.shape[0], -1)
    if flat.size == 0:
        return ResidualReport(0.0, (), (), details or {})
    p, c = np.unravel_index(np.argmax(flat), flat.shape)
    comp = np.unravel_index(c, values.shape[1:]) if values.ndim > 1 else ()
    return ResidualReport(
        float(flat[p, c]),
        tuple(points[p]),
        tuple(int(i) for i in comp),
        details or {},
    )

"""Shared plumbing: seeded sample points and residual reports."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DEFAULT_SEED", "SAMPLE_BOX", "sample_points", "ResidualReport", "max_report"]

# Residual checks draw sample points uniformly from [-SAMPLE_BOX, SAMPLE_BOX]^n,
# which keeps the canonical conformal factors strictly positive.  The seed is
# fixed for reproducibility; AFFSYM_SEED overrides it.
DEFAULT_SEED = 1729
SAMPLE_BOX = 0.4


def sample_points(n, count=20, seed=None):
    """count points uniform in [-0.4, 0.4]^n as an array of shape (count, n)."""
    if seed is None:
        seed = int(os.environ.get("AFFSYM_SEED", DEFAULT_SEED))
    rng = np.random.default_rng(seed)
    return rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(count, n))


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

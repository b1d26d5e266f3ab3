"""Exact per-lane peak alignment.

Given landmark assignments for the detected peaks, each sample lane is
dewarped by the piecewise-linear map sending every peak location onto its
assigned landmark, with the interval endpoints 0 and 1 held fixed.  Unlike
smooth inverse dewarping, which leaves the measurement noise in place, this
puts every apex on its landmark up to grid resolution.
"""

from __future__ import annotations

import numpy as np

from .core import GelTrace, IntensityGrid, Lane, LandmarkGrid
from .peakdetect import PeakTable
from .refalign import build_map, resample_lane


def repair_assignment(z, L: int) -> tuple[int, ...]:
    """Strictly increasing copy of an assignment vector.

    Per-peak marginal maximizers can repeat a landmark; the later peak is
    bumped to the next free one.  Running past the last interior landmark
    means the lane genuinely has more peaks than room left, which no
    repair can fix.
    """
    out: list[int] = []
    prev = 0
    for raw in z:
        ell = int(raw)
        if ell <= prev:
            ell = prev + 1
        if not (1 <= ell <= L):
            raise ValueError(
                f"assignment {tuple(int(v) for v in z)} cannot be made strictly "
                f"increasing within 1..{L}"
            )
        out.append(ell)
        prev = ell
    return tuple(out)


def lane_map(locations, z, L: int):
    """Piecewise-linear map with knots (peak location -> assigned landmark)."""
    locations = np.asarray(locations, dtype=float)
    z = repair_assignment(z, L)
    if locations.size != len(z):
        raise ValueError(f"{locations.size} peaks but {len(z)} assignments")
    nu = LandmarkGrid(L).nu
    return build_map(zip(locations, nu[list(z)]))


def exact_align(grid: IntensityGrid, peaks: PeakTable, z: dict, L: int) -> IntensityGrid:
    """Dewarp every assigned lane so each peak lands on its landmark.

    ``z`` maps (gel_id, lane) to that lane's assignment vector.  Reference
    lanes and lanes without an entry pass through unchanged.  A lane whose
    assignment cannot be mapped fails with its gel and lane named.
    """
    gels = []
    for gel in grid.gels:
        lanes = []
        for lane in gel.lanes:
            key = (gel.gel_id, lane.index)
            if lane.is_reference or key not in z:
                lanes.append(lane)
                continue
            locs = [p.location for p in peaks.lane_peaks(gel.gel_id, lane.index)]
            try:
                pl = lane_map(locs, z[key], L)
            except ValueError as exc:
                raise ValueError(f"gel {gel.gel_id} lane {lane.index}: {exc}") from None
            lanes.append(
                Lane(lane.index, resample_lane(lane.intensity, grid.t, pl))
            )
        gels.append(GelTrace(gel.gel_id, tuple(lanes)))
    return IntensityGrid(tuple(gels), grid.B)


def invert_warp(nu, s_values, t):
    """Positions x with S(x) = t, for a warp sampled on an increasing grid.

    This is the smooth-dewarp counterpart of exact_align: applying it to
    noisy peak locations recovers the landmark only up to the residual
    noise, which is why the exact map exists at all.
    """
    nu = np.asarray(nu, dtype=float)
    s = np.asarray(s_values, dtype=float)
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("warp values must be strictly increasing to invert")
    out = np.interp(np.asarray(t, dtype=float), s, nu)
    return float(out) if np.isscalar(t) else out

"""Piecewise-linear dewarping of whole gels onto a template gel.

The reference lane of each gel carries a known ladder of marker molecules;
matching its detected peaks to the template's by intensity rank gives knot
pairs for a piecewise-linear stretch/compression of the whole gel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GelTrace, IntensityGrid, Lane, read_json, write_json
from .peakdetect import PeakTable


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Continuous, strictly increasing piecewise-linear bijection of [0, 1]."""

    query_knots: np.ndarray
    template_knots: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.query_knots, dtype=float)
        t = np.asarray(self.template_knots, dtype=float)
        object.__setattr__(self, "query_knots", q)
        object.__setattr__(self, "template_knots", t)
        if q.shape != t.shape or q.ndim != 1 or q.size < 2:
            raise ValueError("knot lists must be 1-D, equal length, size >= 2")
        if q[0] != 0.0 or q[-1] != 1.0 or t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("knot lists must start at 0 and end at 1")
        if np.any(np.diff(q) <= 0) or np.any(np.diff(t) <= 0):
            raise ValueError("crossing knots: knot sequences must be strictly increasing")

    def inverse(self) -> "PiecewiseLinearMap":
        return PiecewiseLinearMap(self.template_knots, self.query_knots)


def build_map(pairs) -> PiecewiseLinearMap:
    """Build the map from (query, template) knot pairs, adding endpoints 0 and 1."""
    pairs = sorted((float(q), float(t)) for q, t in pairs)
    query = [q for q, _ in pairs]
    template = [t for _, t in pairs]
    if not query or query[0] > 0.0:
        query.insert(0, 0.0)
        template.insert(0, 0.0)
    if query[-1] < 1.0:
        query.append(1.0)
        template.append(1.0)
    return PiecewiseLinearMap(np.array(query), np.array(template))


def apply_map(pl_map: PiecewiseLinearMap, t):
    """Map query coordinates to template coordinates by linear interpolation."""
    out = np.interp(np.asarray(t, dtype=float), pl_map.query_knots, pl_map.template_knots)
    return float(out) if np.isscalar(t) else out


def match_references(query_peaks, template_peaks, expected_count: int, keys):
    """Pair the expected_count most intense peaks of each lane by location rank.

    Returns (query_locations, template_locations) as sorted arrays.  A lane
    with fewer peaks fails naming its gel and lane: ``keys`` holds the query
    and template lanes' (gel, lane).
    """
    out = []
    for peaks, (gel, lane) in zip((query_peaks, template_peaks), keys):
        peaks = list(peaks)
        if len(peaks) < expected_count:
            raise ValueError(
                f"gel {gel}: reference lane {lane} has {len(peaks)} peaks, "
                f"expected {expected_count} (short by {expected_count - len(peaks)})"
            )
        top = sorted(peaks, key=lambda p: -p.intensity)[:expected_count]
        out.append(np.sort([p.location for p in top]))
    return out[0], out[1]


def resample_lane(intensity: np.ndarray, t: np.ndarray, pl_map: PiecewiseLinearMap) -> np.ndarray:
    """Resample a lane onto the common grid after applying the map.

    The aligned value at template position t_b is the query trace read at the
    inverse-mapped position; linear interpolation, edges clamped.
    """
    src = apply_map(pl_map.inverse(), t)
    return np.interp(src, t, intensity)


def reference_align(
    grid: IntensityGrid,
    peaks: PeakTable,
    template_gel: str,
    expected_count: int = 7,
) -> tuple[IntensityGrid, dict[str, PiecewiseLinearMap]]:
    """Align every gel to the template via its reference-lane peak matches.

    The template gel is returned unchanged (identity map).  Raises if the
    template names no gel of the grid, or a gel lacks a reference lane or has
    too few reference peaks.
    """
    gel_ids = [gel.gel_id for gel in grid.gels]
    if template_gel not in gel_ids:
        raise ValueError(f"template {template_gel!r} is not a gel of the traces, "
                         f"which hold gels {', '.join(gel_ids)}")
    template = grid.gel(template_gel)
    template_key = (template_gel, template.reference_lane().index)
    template_peaks = peaks.lane_peaks(*template_key)
    match_references(template_peaks, template_peaks, expected_count, (template_key, template_key))

    t = grid.t
    maps: dict[str, PiecewiseLinearMap] = {}
    gels_out = []
    for gel in grid.gels:
        key = (gel.gel_id, gel.reference_lane().index)
        query_locs, tmpl_locs = match_references(peaks.lane_peaks(*key), template_peaks,
                                                 expected_count, (key, template_key))
        pl_map = build_map(zip(query_locs, tmpl_locs))
        maps[gel.gel_id] = pl_map
        if gel.gel_id == template_gel:
            gels_out.append(gel)
            continue
        lanes = tuple(
            Lane(ln.index, resample_lane(ln.intensity, t, pl_map), ln.is_reference)
            for ln in gel.lanes
        )
        gels_out.append(GelTrace(gel.gel_id, lanes))
    return IntensityGrid(tuple(gels_out), grid.B), maps


def write_maps(maps: dict[str, PiecewiseLinearMap], path) -> None:
    payload = {
        gel_id: {
            "query_knots": m.query_knots.tolist(),
            "template_knots": m.template_knots.tolist(),
        }
        for gel_id, m in sorted(maps.items())
    }
    write_json(payload, path, indent=2)


def read_maps(path) -> dict[str, PiecewiseLinearMap]:
    return {
        gel_id: PiecewiseLinearMap(np.array(d["query_knots"]), np.array(d["template_knots"]))
        for gel_id, d in read_json(path).items()
    }

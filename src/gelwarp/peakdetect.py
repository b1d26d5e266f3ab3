"""Local difference scoring and peak calling for high-frequency lane traces.

Each bin is scored by comparing its intensity against neighbors exactly h
bins away and against the local minimum in between; bins scoring the maximum
of 3 are peak candidates, and each contiguous candidate run emits one peak
at its intensity argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IntensityGrid, check_int, read_json, write_json


@dataclass(frozen=True)
class PeakConfig:
    """h: neighbor offset in bins; c0: minimum peak elevation."""

    h: int = 10
    c0: float = 0.05

    def __post_init__(self):
        # h indexes bins; a float such as 8.0 (say from JSON) would fail later
        check_int(self.h, "neighbor offset h")
        if self.h < 1:
            raise ValueError(f"neighbor offset h must be >= 1, got {self.h}")
        if self.c0 < 0:
            raise ValueError(f"minimum elevation c0 must be >= 0, got {self.c0}")


@dataclass(frozen=True)
class Peak:
    gel_id: str
    lane: int
    j: int
    bin: int
    location: float
    intensity: float


class PeakTable:
    """Detected peaks, ordered by (gel, lane, location).

    Within each lane the locations are strictly increasing in j and every
    location sits on a grid point b/B of the source trace.
    """

    def __init__(self, entries, B: int):
        self.entries: tuple[Peak, ...] = tuple(entries)
        self.B = B
        self._validate()

    def _validate(self):
        prev_key = None
        prev_loc = None
        expected_j = 1
        self._by_lane: dict[tuple[str, int], list[Peak]] = {}
        for p in self.entries:
            key = (p.gel_id, p.lane)
            if key != prev_key:
                if key in self._by_lane:
                    raise ValueError(
                        f"gel {p.gel_id} lane {p.lane}: peaks split into two "
                        f"runs; each lane's peaks must be contiguous"
                    )
                prev_key, prev_loc, expected_j = key, None, 1
            self._by_lane.setdefault(key, []).append(p)
            if p.j != expected_j:
                raise ValueError(
                    f"gel {p.gel_id} lane {p.lane}: peak index {p.j}, expected {expected_j}"
                )
            if prev_loc is not None and p.location <= prev_loc:
                raise ValueError(
                    f"gel {p.gel_id} lane {p.lane}: locations not strictly increasing at j={p.j}"
                )
            prev_loc = p.location
            expected_j += 1

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def lane_keys(self) -> list[tuple[str, int]]:
        keys = []
        for p in self.entries:
            if not keys or keys[-1] != (p.gel_id, p.lane):
                keys.append((p.gel_id, p.lane))
        return keys

    def lane_peaks(self, gel_id: str, lane: int) -> list[Peak]:
        return list(self._by_lane.get((gel_id, lane), ()))

    def counts(self) -> dict[tuple[str, int], int]:
        """Per-lane peak counts J_gi."""
        out: dict[tuple[str, int], int] = {}
        for p in self.entries:
            key = (p.gel_id, p.lane)
            out[key] = out.get(key, 0) + 1
        return out

    @property
    def total(self) -> int:
        return len(self.entries)

    def filter(self, keep) -> "PeakTable":
        """Keep peaks where ``keep(peak)`` is true, renumbering j per lane."""
        entries = []
        j = 0
        prev_key = None
        for p in self.entries:
            if not keep(p):
                continue
            key = (p.gel_id, p.lane)
            j = j + 1 if key == prev_key else 1
            prev_key = key
            entries.append(Peak(p.gel_id, p.lane, j, p.bin, p.location, p.intensity))
        return PeakTable(entries, self.B)

    def drop_masked(self, manifest: dict) -> "PeakTable":
        """Discard peaks inside any masked interval of their gel."""
        masks = {
            gel_id: entry.get("masked_intervals", [])
            for gel_id, entry in manifest.items()
        }

        def keep(p: Peak) -> bool:
            return not any(lo <= p.location <= hi for lo, hi in masks.get(p.gel_id, []))

        return self.filter(keep)

    def drop_reference_lanes(self, manifest: dict) -> "PeakTable":
        refs = {
            (gel_id, entry["reference_lane"])
            for gel_id, entry in manifest.items()
            if "reference_lane" in entry
        }
        return self.filter(lambda p: (p.gel_id, p.lane) not in refs)

    def to_json(self, path) -> None:
        rows = [
            {
                "gel_id": p.gel_id,
                "lane": p.lane,
                "j": p.j,
                "bin": p.bin,
                "location": p.location,
                "intensity": p.intensity,
            }
            for p in self.entries
        ]
        write_json({"B": self.B, "peaks": rows}, path, indent=2)

    @classmethod
    def from_json(cls, path) -> "PeakTable":
        data = read_json(path)
        entries = [
            Peak(r["gel_id"], r["lane"], r["j"], r["bin"], r["location"], r["intensity"])
            for r in data["peaks"]
        ]
        return cls(entries, int(data["B"]))


def local_scores(intensity: np.ndarray, cfg: PeakConfig) -> np.ndarray:
    """Score every bin of one lane; values in {-3,...,3}.

    score(b) = sign(M_b - M_{l(b)}) + sign(M_b - M_{r(b)})
             + sign(M_b - min_{l(b)<=b'<=r(b)} M_{b'} - c0)
    with l(b) = max(b-h, 1), r(b) = min(b+h, B).
    """
    m = np.asarray(intensity, dtype=float)
    B = m.size
    b = np.arange(B)
    left = m[np.maximum(b - cfg.h, 0)]
    right = m[np.minimum(b + cfg.h, B - 1)]
    win_min = _window_min(m, cfg.h)
    score = np.sign(m - left) + np.sign(m - right) + np.sign(m - win_min - cfg.c0)
    return score.astype(int)


def _window_min(m: np.ndarray, h: int) -> np.ndarray:
    """min of m over [b-h, b+h] truncated to the lane, for every b.

    van Herk/Gil-Werman: edge padding equals truncating the window; pad to
    whole blocks of w = 2h+1, then each window is the suffix minimum of one
    block joined with the prefix minimum of the next.
    """
    w = 2 * h + 1
    B = m.size
    n = -(-(B + 2 * h) // w) * w
    blocks = np.pad(m, (h, n - B - h), mode="edge").reshape(-1, w)
    prefix = np.minimum.accumulate(blocks, axis=1).ravel()
    suffix = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.minimum(suffix[:B], prefix[2 * h : 2 * h + B])


def local_score(intensity: np.ndarray, b: int, cfg: PeakConfig) -> int:
    """Score of a single 1-based bin b."""
    B = len(intensity)
    if not 1 <= b <= B:
        raise ValueError(f"bin {b} outside 1..{B}")
    if not cfg.h < B / 2:
        raise ValueError(f"neighbor offset h={cfg.h} must be < B/2 = {B / 2}")
    return int(local_scores(intensity, cfg)[b - 1])


def _call_lane(intensity: np.ndarray, cfg: PeakConfig) -> list[tuple[int, float]]:
    """(1-based apex bin, apex intensity) per candidate run."""
    score = local_scores(intensity, cfg)
    candidate = score == 3
    if not candidate.any():
        return []
    idx = np.flatnonzero(candidate)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, breaks + 1)
    out = []
    for run in runs:
        apex = run[int(np.argmax(intensity[run]))]  # argmax takes leftmost tie
        out.append((int(apex) + 1, float(intensity[apex])))
    return out


def detect_peaks(grid: IntensityGrid, cfg: PeakConfig) -> PeakTable:
    """Call peaks on every lane of a standardized grid, lane by lane in grid
    order; peaks within a lane are numbered from 1 in bin order."""
    if not cfg.h < grid.B / 2:
        raise ValueError(f"neighbor offset h={cfg.h} must be < B/2 = {grid.B / 2}")
    entries = []
    for gel in grid.gels:
        for lane in gel.lanes:
            for j, (bin_i, apex) in enumerate(_call_lane(lane.intensity, cfg), start=1):
                entries.append(Peak(gel.gel_id, lane.index, j, bin_i, bin_i / grid.B, apex))
    return PeakTable(entries, grid.B)

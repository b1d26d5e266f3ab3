"""Shared domain types: gels, lanes, landmark grids, standardization transforms.

Traces are equi-spaced 1-D intensity profiles, one per lane, grouped by gel.
All downstream stages (peak detection, alignment, dewarping, clustering)
consume the types defined here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np


class GelwarpWarning(UserWarning):
    """Non-fatal data issue (degenerate lane, weakly identified gel, ...)."""


def check_int(value, name: str, lo: int | None = None):
    """``value`` if it is an integer (a numpy integer counts, a bool does not)
    and, given ``lo``, at least ``lo``; otherwise an error naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (lo is not None and value < lo)):
        bound = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class LandmarkGrid:
    """Equi-spaced candidate band positions nu_0 < ... < nu_{L+1} on [0, 1].

    ``L`` counts interior landmarks; peaks are only ever assigned to the
    interior positions 1..L.  The endpoints 0 and 1 anchor the warp field.
    """

    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"landmark count must be >= 1, got {self.L}")

    @property
    def nu(self) -> np.ndarray:
        """All L+2 positions l/(L+1), l = 0..L+1."""
        return np.arange(self.L + 2) / (self.L + 1)

    @property
    def spacing(self) -> float:
        return 1.0 / (self.L + 1)

    def interior(self) -> np.ndarray:
        return self.nu[1:-1]


@dataclass(frozen=True)
class Lane:
    index: int
    intensity: np.ndarray
    is_reference: bool = False

    def __post_init__(self):
        object.__setattr__(self, "intensity", np.asarray(self.intensity, dtype=float))
        if self.intensity.ndim != 1:
            raise ValueError(f"lane {self.index}: intensity must be 1-D")


@dataclass(frozen=True)
class GelTrace:
    """All lanes of one gel, indices contiguous 1..N_g, at most one reference."""

    gel_id: str
    lanes: tuple[Lane, ...]

    def __post_init__(self):
        object.__setattr__(self, "lanes", tuple(self.lanes))
        indices = [lane.index for lane in self.lanes]
        if sorted(indices) != list(range(1, len(indices) + 1)):
            raise ValueError(
                f"gel {self.gel_id}: lane indices must be contiguous 1..{len(indices)}, "
                f"got {sorted(indices)}"
            )
        lengths = {lane.intensity.size for lane in self.lanes}
        if len(lengths) > 1:
            raise ValueError(
                f"gel {self.gel_id}: lanes have differing lengths {sorted(lengths)}"
            )
        n_ref = sum(lane.is_reference for lane in self.lanes)
        if n_ref > 1:
            raise ValueError(f"gel {self.gel_id}: more than one reference lane")

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    def lane(self, index: int) -> Lane:
        for ln in self.lanes:
            if ln.index == index:
                return ln
        raise KeyError(f"gel {self.gel_id}: no lane {index}")

    def reference_lane(self) -> Lane:
        for ln in self.lanes:
            if ln.is_reference:
                return ln
        raise ValueError(f"gel {self.gel_id}: no reference lane flagged")

    def sample_lanes(self) -> tuple[Lane, ...]:
        return tuple(ln for ln in self.lanes if not ln.is_reference)


@dataclass(frozen=True)
class IntensityGrid:
    """Per-lane traces sampled on the common grid t_b = b/B, b = 1..B."""

    gels: tuple[GelTrace, ...]
    B: int

    def __post_init__(self):
        object.__setattr__(self, "gels", tuple(self.gels))
        if self.B < 1:
            raise ValueError("bin count B must be positive")
        for gel in self.gels:
            for lane in gel.lanes:
                if lane.intensity.size != self.B:
                    raise ValueError(
                        f"gel {gel.gel_id} lane {lane.index}: expected {self.B} bins, "
                        f"got {lane.intensity.size}"
                    )
                if not np.all(np.isfinite(lane.intensity)):
                    raise ValueError(
                        f"gel {gel.gel_id} lane {lane.index}: non-finite intensity"
                    )

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, self.B + 1) / self.B

    def gel(self, gel_id: str) -> GelTrace:
        for g in self.gels:
            if g.gel_id == gel_id:
                return g
        raise KeyError(f"no gel {gel_id}")

    def lane_keys(self, include_reference: bool = True) -> list[tuple[str, int]]:
        """(gel_id, lane_index) pairs in gel/lane order."""
        keys = []
        for gel in self.gels:
            for lane in gel.lanes:
                if include_reference or not lane.is_reference:
                    keys.append((gel.gel_id, lane.index))
        return keys

    def matrix(self, include_reference: bool = True) -> np.ndarray:
        """Stack traces into an (n_lanes, B) array, gel/lane order."""
        rows = []
        for gel in self.gels:
            for lane in gel.lanes:
                if include_reference or not lane.is_reference:
                    rows.append(lane.intensity)
        return np.array(rows)


@dataclass(frozen=True)
class Standardizer:
    """Location-scale transform x -> (x - center) / scale."""

    center: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.scale

    def invert(self, z):
        return np.asarray(z, dtype=float) * self.scale + self.center

    def to_dict(self) -> dict:
        return {"center": self.center, "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(center=float(d["center"]), scale=float(d["scale"]))


def fit_standardizer(values) -> Standardizer:
    """Mean/sd transform so that transformed values have mean 0, sample sd 1.

    Raises ValueError("zero variance") on a constant sequence.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 values to fit a standardizer")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0 or not math.isfinite(sd):
        raise ValueError("zero variance")
    return Standardizer(center=float(np.mean(x)), scale=sd)


def _scale_lane_minmax(x: np.ndarray, label: str) -> np.ndarray:
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        warnings.warn(f"{label}: constant intensity, mapped to zeros", GelwarpWarning)
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def _scale_lane_quantile(x: np.ndarray, label: str) -> np.ndarray:
    lo = float(np.quantile(x, 0.10))
    hi = float(np.quantile(x, 0.99))
    if hi <= lo:
        warnings.warn(f"{label}: degenerate quantile range, mapped to zeros", GelwarpWarning)
        return np.zeros_like(x)
    return np.clip((x - lo) / (hi - lo), 0.0, 1.0)


STANDARDIZE_METHODS = ("minmax", "quantile")


def standardize_intensities(raw: IntensityGrid, method: str = "minmax") -> IntensityGrid:
    """Map every lane's intensities into [0, 1].

    ``minmax`` rescales by the lane's range; ``quantile`` subtracts the lane's
    10th percentile as background and scales by the 99th, clipping to [0, 1].
    Both are monotone per lane, so within-lane ordering is preserved.
    A constant lane maps to all zeros and emits a GelwarpWarning.
    """
    if method not in STANDARDIZE_METHODS:
        raise ValueError(f"unknown standardization method {method!r}")
    scale = _scale_lane_minmax if method == "minmax" else _scale_lane_quantile
    gels = []
    for gel in raw.gels:
        lanes = []
        for lane in gel.lanes:
            label = f"gel {gel.gel_id} lane {lane.index}"
            lanes.append(
                Lane(lane.index, scale(lane.intensity, label), lane.is_reference)
            )
        gels.append(GelTrace(gel.gel_id, tuple(lanes)))
    return IntensityGrid(tuple(gels), raw.B)


# ---------------------------------------------------------------------------
# File formats: traces CSV, sidecar manifest JSON, lane names
# ---------------------------------------------------------------------------


def lane_name(key) -> str:
    """The "gel:lane" name of a (gel_id, lane) key, as every artifact spells it."""
    gel_id, lane = key
    return f"{gel_id}:{lane}"


def parse_lane_name(name: str) -> tuple[str, int]:
    """The (gel_id, lane) key of a "gel:lane" name; the gel id may hold ':'."""
    gel_id, lane = name.rsplit(":", 1)
    return gel_id, int(lane)


def write_json(payload, path, indent=None) -> None:
    """Write ``payload`` as JSON with sorted keys and one trailing newline,
    making the parent directories.  Without an indent, json.dumps takes the
    C encoder; json.dump to a file never does."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")


TRACE_COLUMNS = ("gel_id", "lane", "bin", "intensity")


def read_manifest(path) -> dict:
    """Sidecar manifest: per-gel reference lane, reference weights, masks.

    Schema: {"gel_id": {"reference_lane": int >= 1, "reference_kda":
    [positive numbers], "masked_intervals": [[lo, hi], ...] with
    0 <= lo < hi <= 1}}.  All fields per gel optional; a malformed one fails
    with the file and the gel named.
    """
    with open(path) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path}: expected a JSON object keyed by gel_id")
    for gel_id, entry in manifest.items():
        if not isinstance(entry, dict):
            raise ValueError(f"manifest {path}: entry for gel {gel_id} must be an object")
        where = f"manifest {path}: gel {gel_id}"
        # a JSON true would flag lane 1
        if "reference_lane" in entry:
            check_int(entry["reference_lane"], f"{where}: reference_lane", 1)
        # the ladder's length sets how many reference peaks refalign expects
        kda = entry.get("reference_kda", [])
        if not isinstance(kda, list) or not all(_is_number(w) and w > 0 for w in kda):
            raise ValueError(f"{where}: reference_kda must be a list of positive numbers, "
                             f"got {kda!r}")
        intervals = entry.get("masked_intervals", [])
        if not isinstance(intervals, list):
            raise ValueError(f"{where}: masked_intervals must be a list of [lo, hi] pairs, "
                             f"got {intervals!r}")
        for interval in intervals:
            if not (isinstance(interval, list) and len(interval) == 2
                    and all(map(_is_number, interval))):
                raise ValueError(f"{where}: bad masked interval {interval!r}, "
                                 f"expected a [lo, hi] pair of numbers")
            lo, hi = interval
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"{where}: bad masked interval [{lo}, {hi}]")
    return manifest


def _is_number(value) -> bool:
    """A finite JSON number; a bool is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# One traces CSV row; loadtxt maps each gel id to its first-seen rank.
_TRACE_ROW = np.dtype(
    [("gel", np.int64), ("lane", np.int64), ("bin", np.int64), ("intensity", float)]
)


def read_traces_csv(path, manifest: dict | None = None) -> IntensityGrid:
    """Load a traces CSV (columns gel_id,lane,bin,intensity, bins 1..B).

    Bins must be present and contiguous for every lane; every lane within a
    gel must have the same bin count.  Gels keep the order in which they
    first appear; lanes are sorted by index.  Reference lanes are flagged
    from the manifest when given.
    """
    with open(path, newline="") as f:
        first = f.readline()
        header = next(csv.reader([first]), None) if first else None
        if header is None or tuple(h.strip() for h in header) != TRACE_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(TRACE_COLUMNS)}, got {header}"
            )
        # a C-level lookup per row; only a new gel id runs Python code
        gel_rank: defaultdict[str, int] = defaultdict(lambda: len(gel_rank))
        shortest: list[int] = []
        try:
            with warnings.catch_warnings():
                # numpy 1.x reads an int field such as "1.5" via float, warning
                warnings.simplefilter("error", DeprecationWarning)
                # a file without data rows warns; it is an error below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    chain.from_iterable(_line_blocks(f, shortest)),
                    dtype=_TRACE_ROW, delimiter=",", comments=None,
                    quotechar='"', ndmin=1, encoding=None,
                    converters={0: gel_rank.__getitem__},
                )
        except (ValueError, DeprecationWarning) as exc:
            _raise_row_error(path)
            raise ValueError(f"{path}: {exc}") from None
    # loadtxt skips blank lines, which are at most two characters ("\r\n");
    # a line that short has the csv re-scan decide
    if shortest and min(shortest) <= 2:
        _raise_row_error(path)
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")

    # one sort groups every lane's bins, gels in first-seen order
    gel_ids = list(gel_rank)
    g, lane, bins = rows["gel"], rows["lane"], rows["bin"]
    idx = np.lexsort((bins, lane, g))
    g, lane, bins = g[idx], lane[idx], bins[idx]

    same_lane = (g[1:] == g[:-1]) & (lane[1:] == lane[:-1])
    dup = same_lane & (bins[1:] == bins[:-1])
    if dup.any():
        # the sort is stable, so the earliest row that repeats a bin is the
        # smallest file index among second-and-later copies
        r = int(idx[1:][dup].min())
        raise ValueError(
            f"gel {gel_ids[rows['gel'][r]]} lane {rows['lane'][r]}: "
            f"duplicate bin {rows['bin'][r]}"
        )
    starts = np.flatnonzero(np.concatenate(([True], ~same_lane)))
    counts = np.diff(np.append(starts, idx.size))
    pos = np.arange(idx.size) - np.repeat(starts, counts) + 1
    complete = np.logical_and.reduceat(bins == pos, starts)
    # B is the bin count of the lane holding the file's first data row
    B = int(counts[np.searchsorted(starts, np.argmin(idx), "right") - 1])
    bad = ~complete | (counts != B)
    if bad.any():
        k = int(np.argmax(bad))
        gel_id, lane_i, nb = gel_ids[g[starts[k]]], lane[starts[k]], int(counts[k])
        if not complete[k]:
            present = set(bins[starts[k] : starts[k] + nb].tolist())
            b = next(b for b in range(1, nb + 1) if b not in present)
            raise ValueError(f"gel {gel_id} lane {lane_i}: missing bin {b}")
        raise ValueError(f"gel {gel_id} lane {lane_i}: {nb} bins, expected {B}")

    intensity = rows["intensity"][idx].reshape(-1, B)
    lane_no = lane[starts].tolist()
    gel_bounds = np.searchsorted(g[starts], np.arange(len(gel_ids) + 1)).tolist()
    gels = []
    for r, gel_id in enumerate(gel_ids):
        ref_lane = (manifest or {}).get(gel_id, {}).get("reference_lane")
        lanes = tuple(
            Lane(lane_no[k], intensity[k], is_reference=(lane_no[k] == ref_lane))
            for k in range(gel_bounds[r], gel_bounds[r + 1])
        )
        gels.append(GelTrace(gel_id, lanes))
    return IntensityGrid(tuple(gels), B)


def _line_blocks(f, shortest: list[int]):
    """The lines of ``f`` in blocks of about 1 MB, noting each block's shortest line."""
    while block := f.readlines(1 << 20):
        shortest.append(min(map(len, block)))
        yield block


def _raise_row_error(path) -> None:
    """Name the first malformed data row of a traces CSV.

    Runs only after the column-wise parse has failed or may have skipped a
    blank line; it re-reads the file row by row so the error names the
    file's line, and returns when every row is well formed.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader, None)
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}:{row_num}: expected 4 columns, got {len(row)}")
            try:
                int(row[1]), int(row[2]), float(row[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{row_num}: {exc}") from None


def write_traces_csv(grid: IntensityGrid, path) -> None:
    """Write a traces CSV, byte for byte what ``csv.writer`` writes row by row.

    Rows end in csv's CRLF and intensities are written with repr().
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(TRACE_COLUMNS)
        for gel in grid.gels:
            for lane in gel.lanes:
                prefix = _csv_prefix(gel.gel_id, lane.index)
                f.write("".join(
                    [f"{prefix}{b},{v!r}\r\n"
                     for b, v in enumerate(lane.intensity.tolist(), start=1)]
                ))


def _csv_prefix(*fields) -> str:
    """The fields as csv.writer writes them (quoted where needed), then a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[:-2]


def write_manifest(manifest: dict, path) -> None:
    write_json(manifest, path, indent=2)

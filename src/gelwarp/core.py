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
from dataclasses import dataclass
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


def linear_quantiles(data, q) -> np.ndarray:
    """np.quantile(data, q) for q in [0, 1], numpy's default "linear"
    method, bit for bit, from a sort: the value at index (n - 1) q of the
    sorted data, between its floor and the next index, interpolated as
    numpy's _lerp does (from the upper end when the fraction is at least
    0.5).  np.quantile and np.percentile (which divides q by 100) import
    numpy.ma on their first call, which costs 10-40 ms a process."""
    x = np.sort(np.asarray(data, dtype=float), axis=None)
    at = (x.size - 1) * np.asarray(q, dtype=float)
    below = np.floor(at)
    t = at - below
    i = below.astype(np.intp)
    a, b = x[i], x[np.minimum(i + 1, x.size - 1)]
    step = b - a
    out = np.where(t >= 0.5, b - step * (1 - t), a + step * t)
    # numpy sorts a NaN last and then returns it at every q
    return np.where(np.isnan(x[-1]), x[-1], out)


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
    """Location-scale transform x -> (x - center) / scale, with a finite
    center and a finite positive scale."""

    center: float
    scale: float

    def __post_init__(self):
        check_number(self.center, "center")
        if not check_number(self.scale, "scale") > 0:
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


def standardize_intensities(raw: IntensityGrid) -> IntensityGrid:
    """Map every lane's intensities onto [0, 1] by the lane's range, so the
    lane's minimum goes to 0 and its maximum to 1.  The map is monotone, so
    within-lane ordering is preserved.
    A constant lane maps to all zeros and emits a GelwarpWarning.
    """
    gels = []
    for gel in raw.gels:
        lanes = []
        for lane in gel.lanes:
            x = lane.intensity
            lo, hi = float(x.min()), float(x.max())
            if hi <= lo:
                warnings.warn(f"gel {gel.gel_id} lane {lane.index}: constant intensity, "
                              f"mapped to zeros", GelwarpWarning)
                x = np.zeros_like(x)
            else:
                x = (x - lo) / (hi - lo)
            lanes.append(Lane(lane.index, x, lane.is_reference))
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
    gel_id, _, lane = name.rpartition(":")
    try:
        return gel_id, int(lane)
    except ValueError:
        raise ValueError(f"{name!r} is not a gel:lane name") from None


def open_text(path, mode="r"):
    """Open a text file as UTF-8 in any locale, with no newline translation:
    a read sees the file's own line ends and a write puts down exactly the
    characters given.  Writing makes the parent directories."""
    if mode != "r":
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, mode, encoding="utf-8", newline="")


def read_json(path, object_hook=None):
    """The JSON value in ``path``; a file that is malformed or not UTF-8, or
    holds an object that repeats a key, fails with a ValueError naming it
    (and the key).  ``object_hook``, as in json.load, replaces each object
    as soon as it closes, so a caller can turn an entry's lists into arrays
    before the next entry is parsed."""

    def build(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ValueError(f"key {key!r} is repeated in one object")
                seen.add(key)
        return obj if object_hook is None else object_hook(obj)

    try:
        with open_text(path) as f:
            return json.load(f, object_pairs_hook=build)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(payload, path, indent=None) -> None:
    """Write ``payload`` as JSON with sorted keys and one trailing newline.
    Without an indent, json.dumps takes the C encoder; json.dump to a file
    never does."""
    with open_text(path, "w") as f:
        f.write(json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def write_json_entries(payload, path, key: str, items: dict, build) -> None:
    """Write the bytes ``write_json(payload | {key: {name: build(item) for
    name, item in items.items()}}, path)`` would write, but build and encode
    one entry of ``payload[key]`` at a time, in sorted name order, so only
    one entry's value and text are alive at once."""
    with open_text(path, "w") as f:
        sep = "{"
        for k in sorted({*payload, key}):
            f.write(f"{sep}{json.dumps(k)}: ")
            sep = ", "
            if k != key:
                f.write(json.dumps(payload[k], sort_keys=True))
                continue
            f.write("{")
            inner = ""
            for name in sorted(items):
                f.write(f"{inner}{json.dumps(name)}: "
                        f"{json.dumps(build(items[name]), sort_keys=True)}")
                inner = ", "
            f.write("}")
        f.write("}\n")


def write_csv(path, header, rows) -> None:
    """Write a header and rows with ``csv.writer``, whose lines end in CRLF."""
    with open_text(path, "w") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


TRACE_COLUMNS = ("gel_id", "lane", "bin", "intensity")


def read_manifest(path) -> dict:
    """Sidecar manifest: per-gel reference lane, reference weights, masks.

    Schema: {"gel_id": {"reference_lane": int >= 1, "reference_kda":
    [positive numbers], "masked_intervals": [[lo, hi], ...] with
    0 <= lo < hi <= 1}}.  All fields per gel optional; a malformed one fails
    with the file and the gel named.
    """
    manifest = read_json(path)
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
    """A finite number (a numpy number counts); a bool is not one."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


def check_number(value, name: str, lo: float | None = None):
    """``value`` if it is a finite number (a numpy number counts, a bool does
    not) and, given ``lo``, at least ``lo``; otherwise an error naming
    ``name``."""
    if not _is_number(value) or (lo is not None and value < lo):
        bound = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")
    return value


def read_traces_csv(path, manifest: dict | None = None) -> IntensityGrid:
    """Load a traces CSV (columns gel_id,lane,bin,intensity, bins 1..B).

    The file is UTF-8 text; one that is not fails naming the file.  Bins
    must be present and contiguous for every lane; every lane within a gel
    must have the same bin count.  Gels keep the order in which they first
    appear; lanes are sorted by index.  Rows in the order the writer puts
    them down are used in place, and any other order is sorted.  Reference
    lanes are flagged from the manifest when given.
    """
    try:
        return _read_traces(path, manifest)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


# Bytes of a gel id held per row: with 4-byte lane and bin fields a row takes
# 32 bytes, as four 8-byte numbers would.  A file with an id that fills the
# field reads its ids again, a block of lines at a time.
_GEL_WIDTH = 16


def _read_traces(path, manifest: dict | None) -> IntensityGrid:
    with open_text(path) as f:
        first = f.readline()
    header = next(csv.reader([first]), None) if first else None
    if header is None or tuple(h.strip() for h in header) != TRACE_COLUMNS:
        raise ValueError(
            f"{path}: expected header {','.join(TRACE_COLUMNS)}, got {header}"
        )
    rows = _load_rows(path)
    if rows.size != _line_count(path) - 1:
        # a blank line, which loadtxt skips, or a line break inside quotes,
        # which it reads with \r as \n: the gel ids are csv's
        heads, ids = _raise_row_error(path)
    elif rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    else:
        heads = _run_heads(rows["gel"])
        ids = rows["gel"][heads].tolist()
        if max(map(len, ids)) >= _GEL_WIDTH:
            # an id that fills the field may have been cut short
            heads, ids = _gel_runs(path)
        else:
            ids = [h.decode() for h in ids]

    # rank the runs of equal ids by each id's first appearance
    rank: dict[str, int] = {}
    head_rank = [rank.setdefault(h, len(rank)) for h in ids]
    gel_ids = list(rank)
    ranks = np.repeat(np.array(head_rank, dtype=np.min_scalar_type(len(rank) - 1)),
                      np.diff(heads, append=rows.size))

    # g, lane and bins grouped by (gel rank, lane, bin); first is where the
    # file's first data row lands among them
    lane, bins = rows["lane"], rows["bin"]
    if _grouped(ranks, lane, bins):
        # rows as the writer puts them down are used in place
        idx, g, first = None, ranks, 0
    else:
        # one sort groups every lane's bins, gels in first-seen order
        idx = np.lexsort((bins, lane, ranks))
        g, lane, bins = ranks[idx], lane[idx], bins[idx]
        first = int(np.argmin(idx))

    starts = np.flatnonzero(np.concatenate(
        ([True], (g[1:] != g[:-1]) | (lane[1:] != lane[:-1]))))
    counts = np.diff(starts, append=bins.size)
    # B is the bin count of the lane holding the file's first data row
    B = int(counts[np.searchsorted(starts, first, "right") - 1])
    if np.any(counts != B) or not np.all(
            bins.reshape(-1, B) == np.arange(1, B + 1, dtype=bins.dtype)):
        _raise_lane_error(g, lane, bins, idx, gel_ids, B)

    # a contiguous copy, so that the grid does not hold the parsed rows
    intensity = (np.ascontiguousarray(rows["intensity"]) if idx is None
                 else rows["intensity"][idx]).reshape(-1, B)
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


def _load_rows(path) -> np.ndarray:
    """The data rows, parsed in C; the gel field holds each id's first
    ``_GEL_WIDTH`` bytes (latin-1 maps every byte to one character)."""
    dtype = np.dtype([("gel", f"S{_GEL_WIDTH}"), ("lane", np.int32), ("bin", np.int32),
                      ("intensity", float)])
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads an int field such as "1.5" via float, warning
            warnings.simplefilter("error", DeprecationWarning)
            # a file without data rows warns; it is an error above
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                              quotechar='"', skiprows=1, ndmin=1, encoding="latin-1")
    except (ValueError, DeprecationWarning) as exc:
        _raise_row_error(path)
        raise ValueError(f"{path}: {exc}") from None


def _line_count(path) -> int:
    """The file's lines as csv splits them: each ends at an LF, a CRLF or a
    lone CR, and a last line without an end counts too.  The file is read
    in blocks of 64 kB, which keeps the byte masks small."""
    n, last = 0, b""
    with open(path, "rb") as f:
        while block := f.read(1 << 16):
            a = np.frombuffer(block, np.uint8)
            lf, cr = a == 10, a == 13
            n += np.count_nonzero(lf)
            if n_cr := np.count_nonzero(cr):
                # a CR ends a line unless an LF follows it
                n += n_cr - np.count_nonzero(cr[:-1] & lf[1:])
            n -= last == b"\r" and block[:1] == b"\n"
            last = block[-1:]
    return n + (last not in (b"", b"\r", b"\n"))


def _run_heads(a: np.ndarray) -> np.ndarray:
    """The indices at which a run of equal values starts."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))


def _gel_runs(path) -> tuple[list[int], list[str]]:
    """The row at which each run of equal gel ids starts, and its id, for a
    file whose lines are its rows.  The ids are parsed a block of about
    1 MB of lines at a time, in a field as wide as the block's longest
    line, so none is cut short and the field's size stays bounded; a run
    that spans two blocks is listed twice."""
    heads, ids, n = [], [], 0
    with open_text(path) as f:
        f.readline()
        while block := f.readlines(1 << 20):
            gel = np.loadtxt(block, dtype=f"U{max(map(len, block))}", usecols=0,
                             delimiter=",", comments=None, quotechar='"', ndmin=1)
            h = _run_heads(gel)
            heads += (h + n).tolist()
            ids += gel[h].tolist()
            n += len(block)
    return heads, ids


def _raise_row_error(path) -> tuple[list[int], list[str]]:
    """Name the first malformed data row of a traces CSV.

    Runs only after the column-wise parse has failed or may have read the
    file's lines differently from csv; it re-reads the file row by row so
    the error names the file's line.  When every row is well formed it
    returns the row at which each run of equal gel ids starts, and its id.
    """
    heads, ids = [], []
    with open_text(path) as f:
        reader = csv.reader(f)
        next(reader, None)
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}:{row_num}: expected 4 columns, got {len(row)}")
            try:
                int(row[1]), int(row[2]), float(row[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{row_num}: {exc}") from None
            if not ids or row[0] != ids[-1]:
                heads.append(row_num - 2)
                ids.append(row[0])
    return heads, ids


def _grouped(g: np.ndarray, lane: np.ndarray, bins: np.ndarray) -> bool:
    """Whether the rows strictly increase in (gel rank, lane, bin), as the
    writer puts them down: one pass of adjacent comparisons on bool arrays."""
    up = bins[1:] > bins[:-1]
    up &= lane[1:] == lane[:-1]
    up |= lane[1:] > lane[:-1]
    up &= g[1:] == g[:-1]
    up |= g[1:] > g[:-1]
    return bool(up.all())


def _raise_lane_error(g, lane, bins, idx, gel_ids, B) -> None:
    """Name the first lane whose bins are not 1..B, for rows grouped by
    (gel rank, lane) with bins ascending in each lane; ``idx`` maps each
    grouped row to its file row, None when the two are the same.  A
    duplicate bin is named first, then a missing one, then a bin count."""
    if idx is None:
        idx = np.arange(bins.size)
    same_lane = (g[1:] == g[:-1]) & (lane[1:] == lane[:-1])
    dup = np.flatnonzero(same_lane & (bins[1:] == bins[:-1])) + 1
    if dup.size:
        # the sort is stable, so the earliest row that repeats a bin is the
        # smallest file index among second-and-later copies
        r = dup[np.argmin(idx[dup])]
        raise ValueError(f"gel {gel_ids[g[r]]} lane {lane[r]}: duplicate bin {bins[r]}")
    starts = np.flatnonzero(np.concatenate(([True], ~same_lane)))
    counts = np.diff(np.append(starts, bins.size))
    pos = np.arange(bins.size) - np.repeat(starts, counts) + 1
    complete = np.logical_and.reduceat(bins == pos, starts)
    k = int(np.argmax(~complete | (counts != B)))
    gel_id, lane_i, nb = gel_ids[g[starts[k]]], lane[starts[k]], int(counts[k])
    if not complete[k]:
        present = set(bins[starts[k] : starts[k] + nb].tolist())
        b = next(b for b in range(1, nb + 1) if b not in present)
        raise ValueError(f"gel {gel_id} lane {lane_i}: missing bin {b}")
    raise ValueError(f"gel {gel_id} lane {lane_i}: {nb} bins, expected {B}")


def write_traces_csv(grid: IntensityGrid, path) -> None:
    """Write a traces CSV as UTF-8, byte for byte what ``csv.writer`` writes
    row by row.

    Rows end in csv's CRLF and intensities are written with repr().
    """
    B = grid.B
    # a lane's rows are "".join of (prefix, bin, intensity, CRLF) per bin;
    # each lane refills the prefixes and the intensities.  A list's repr
    # holds each float's repr, and IntensityGrid holds only finite floats.
    parts = [""] * (4 * B)
    parts[1::4] = [f"{b}," for b in range(1, B + 1)]
    parts[3::4] = ["\r\n"] * B
    with open_text(path, "w") as f:
        csv.writer(f).writerow(TRACE_COLUMNS)
        for gel in grid.gels:
            for lane in gel.lanes:
                parts[0::4] = [_csv_prefix(gel.gel_id, lane.index)] * B
                parts[2::4] = repr(lane.intensity.tolist())[1:-1].split(", ")
                f.write("".join(parts))


def _csv_prefix(*fields) -> str:
    """The fields as csv.writer writes them (quoted where needed), then a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[:-2]


def write_manifest(manifest: dict, path) -> None:
    write_json(manifest, path, indent=2)

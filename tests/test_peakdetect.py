import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelwarp.core import GelTrace, IntensityGrid, Lane
from gelwarp.peakdetect import (
    Peak,
    PeakConfig,
    PeakTable,
    _window_min,
    detect_peaks,
    local_score,
    local_scores,
)


def sign(x) -> int:
    x = float(x)
    return int(x > 0) - int(x < 0)


def brute_score(M, b, h, c0):
    """Direct three-term evaluation on 1-based bins."""
    B = len(M)
    lo = max(b - h, 1)
    hi = min(b + h, B)
    window_min = min(M[i - 1] for i in range(lo, hi + 1))
    return (
        sign(M[b - 1] - M[lo - 1])
        + sign(M[b - 1] - M[hi - 1])
        + sign(M[b - 1] - window_min - c0)
    )


def one_lane_grid(values):
    lanes = (Lane(1, np.asarray(values, dtype=float)),)
    return IntensityGrid((GelTrace("G1", lanes),), len(values))


class TestLocalScore:
    def test_flat_lane(self):
        lane = np.full(20, 0.3)
        cfg = PeakConfig(h=3, c0=0.05)
        assert local_score(lane, 10, cfg) == -1

    def test_triangle_apex(self):
        lane = np.array([0, 1, 2, 3, 2, 1, 0], dtype=float)
        cfg = PeakConfig(h=2, c0=1.0)
        assert local_score(lane, 4, cfg) == 3

    def test_triangle_shoulder(self):
        lane = np.array([0, 1, 2, 3, 2, 1, 0], dtype=float)
        cfg = PeakConfig(h=2, c0=1.0)
        assert local_score(lane, 2, cfg) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            B = int(rng.integers(10, 60))
            lane = rng.random(B)
            h = int(rng.integers(1, max(2, B // 2)))
            c0 = float(rng.random() * 0.3)
            cfg = PeakConfig(h=h, c0=c0)
            scores = local_scores(lane, cfg)
            b = int(rng.integers(1, B + 1))
            assert scores[b - 1] == brute_score(lane, b, h, c0)
            assert local_score(lane, b, cfg) == brute_score(lane, b, h, c0)

    # quarter-grid values make ties common; h=0 is the one-bin window
    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=30),
        st.integers(0, 12),
    )
    @settings(max_examples=300)
    def test_window_min_matches_truncated_window(self, values, h):
        m = np.asarray(values, dtype=float) / 4
        B = m.size
        want = [m[max(b - h, 0) : min(b + h, B - 1) + 1].min() for b in range(B)]
        np.testing.assert_array_equal(_window_min(m, h), want)

    # dyadic values keep the differences exact, so the invariance is not
    # blurred by floating-point rounding at the c0 threshold
    @given(
        st.lists(st.integers(0, 64), min_size=8, max_size=40),
        st.integers(-32, 32),
    )
    @settings(max_examples=100)
    def test_shift_invariance(self, values, c):
        # every term of the score is a difference, so adding a constant
        # to the whole lane changes nothing
        lane = np.asarray(values, dtype=float) / 64
        cfg = PeakConfig(h=3, c0=0.1)
        np.testing.assert_array_equal(
            local_scores(lane, cfg), local_scores(lane + c / 64, cfg)
        )

    @given(
        st.lists(st.integers(0, 64), min_size=8, max_size=40),
        st.integers(1, 5),
    )
    @settings(max_examples=100)
    def test_scale_invariance_only_without_c0(self, values, k):
        lane = np.asarray(values, dtype=float) / 64
        cfg = PeakConfig(h=3, c0=0.0)
        np.testing.assert_array_equal(
            local_scores(lane, cfg), local_scores(lane * k, cfg)
        )

    def test_bad_config(self):
        with pytest.raises(ValueError):
            PeakConfig(h=0)
        with pytest.raises(ValueError):
            PeakConfig(h=5, c0=-0.1)

    @pytest.mark.parametrize("h", [8.0, 2.5, True, "8"])
    def test_non_integer_h_named(self, h):
        # h indexes bins, so a JSON 8.0 must fail here, not as an IndexError
        with pytest.raises(ValueError, match=re.escape(f"h must be an integer, got {h!r}")):
            PeakConfig(h=h)

    def test_numpy_integer_h_accepted(self):
        assert PeakConfig(h=np.int64(3)).h == 3


class TestDetectPeaks:
    def test_triangle_single_peak(self):
        grid = one_lane_grid([0, 1, 2, 3, 2, 1, 0])
        table = detect_peaks(grid, PeakConfig(h=2, c0=1.0))
        assert [(p.lane, p.bin) for p in table] == [(1, 4)]
        assert table.entries[0].location == pytest.approx(4 / 7)

    def test_two_triangles(self):
        lane = [0, 0, 1, 3, 1, 0, 0, 0, 0, 1, 3, 1, 0, 0]
        grid = one_lane_grid(lane)
        table = detect_peaks(grid, PeakConfig(h=2, c0=0.5))
        assert [p.bin for p in table] == [4, 11]

    def test_flat_lane_no_peaks(self):
        grid = one_lane_grid([0.5] * 30)
        table = detect_peaks(grid, PeakConfig(h=3, c0=0.05))
        assert len(table) == 0

    def test_plateau_takes_leftmost_apex(self):
        lane = [0, 0, 1, 3, 3, 1, 0, 0]
        grid = one_lane_grid(lane)
        table = detect_peaks(grid, PeakConfig(h=2, c0=0.5))
        assert [p.bin for p in table] == [4]

    def test_candidate_runs_split_by_gap(self):
        rng = np.random.default_rng(11)
        t = np.arange(1, 201) / 200
        lane = np.zeros(200)
        for c in (0.3, 0.7):
            lane += np.exp(-0.5 * ((t - c) / 0.01) ** 2)
        lane += rng.normal(0, 1e-4, size=200)
        table = detect_peaks(one_lane_grid(lane), PeakConfig(h=10, c0=0.05))
        locs = [p.location for p in table]
        assert len(locs) == 2
        assert abs(locs[0] - 0.3) < 0.01 and abs(locs[1] - 0.7) < 0.01

    def test_h_must_fit(self):
        grid = one_lane_grid([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="h"):
            detect_peaks(grid, PeakConfig(h=2, c0=0.0))


class TestPeakTable:
    def test_strictly_increasing_required(self):
        entries = [
            Peak("G1", 1, 1, 10, 0.1, 1.0),
            Peak("G1", 1, 2, 10, 0.1, 1.0),
        ]
        with pytest.raises(ValueError, match="strictly increasing"):
            PeakTable(entries, 100)

    def test_j_must_be_contiguous(self):
        entries = [Peak("G1", 1, 2, 10, 0.1, 1.0)]
        with pytest.raises(ValueError, match="peak index"):
            PeakTable(entries, 100)

    def test_lane_split_into_two_runs_rejected(self):
        entries = [
            Peak("g1", 1, 1, 10, 0.10, 1.0),
            Peak("g1", 2, 1, 20, 0.20, 1.0),
            Peak("g1", 1, 1, 5, 0.05, 1.0),
        ]
        with pytest.raises(ValueError, match="gel g1 lane 1: peaks split into two runs"):
            PeakTable(entries, 100)

    def test_filter_renumbers(self):
        entries = [
            Peak("G1", 1, 1, 10, 0.10, 1.0),
            Peak("G1", 1, 2, 20, 0.20, 0.4),
            Peak("G1", 1, 3, 30, 0.30, 0.9),
        ]
        table = PeakTable(entries, 100)
        kept = table.filter(lambda p: p.intensity > 0.5)
        assert [(p.j, p.bin) for p in kept] == [(1, 10), (2, 30)]

    def test_counts(self):
        entries = [
            Peak("G1", 1, 1, 10, 0.10, 1.0),
            Peak("G1", 2, 1, 15, 0.15, 1.0),
            Peak("G1", 2, 2, 25, 0.25, 1.0),
        ]
        table = PeakTable(entries, 100)
        assert table.counts() == {("G1", 1): 1, ("G1", 2): 2}
        assert table.total == 3

    def test_drop_masked(self):
        entries = [
            Peak("G1", 1, 1, 10, 0.10, 1.0),
            Peak("G1", 1, 2, 50, 0.50, 1.0),
        ]
        table = PeakTable(entries, 100)
        out = table.drop_masked({"G1": {"masked_intervals": [[0.4, 0.6]]}})
        assert [p.bin for p in out] == [10]

    def test_json_round_trips(self, tmp_path):
        table = PeakTable([Peak("G1", 1, 1, 10, 0.10, 1.0), Peak("G1", 1, 2, 50, 0.50, 0.25),
                           Peak("g2", 3, 1, 7, 0.07, 0.5)], 100)
        path = tmp_path / "peaks.json"
        table.to_json(path)
        back = PeakTable.from_json(path)
        assert back.entries == table.entries and back.B == 100

    @pytest.mark.parametrize("edit, message", [
        pytest.param(None, "expected a JSON object", id="list"),
        pytest.param(lambda d: d.pop("B"), 'no "B"', id="no-B"),
        pytest.param(lambda d: d.update(B=100.0), "B must be an integer >= 1, got 100.0",
                     id="non-integer-B"),
        pytest.param(lambda d: d.update(B="100"), "B must be an integer >= 1, got '100'",
                     id="string-B"),
        pytest.param(lambda d: d.update(B=0), "B must be an integer >= 1, got 0", id="B-zero"),
        pytest.param(lambda d: d.pop("peaks"), 'no "peaks"', id="no-peaks"),
        pytest.param(lambda d: d.update(peaks={}), "peaks is not a list", id="peaks-object"),
        pytest.param(lambda d: d["peaks"].__setitem__(1, 5), "peaks[1]: expected a JSON object",
                     id="peak-not-object"),
        *(pytest.param(lambda d, f=f: d["peaks"][1].pop(f),
                       f'peaks[1] (gel {"None" if f == "gel_id" else "G1"}, '
                       f'lane {"None" if f == "lane" else 1}): no "{f}"', id=f"no-{f}")
          for f in ("gel_id", "lane", "j", "bin", "location", "intensity")),
        pytest.param(lambda d: d["peaks"][1].update(gel_id=1),
                     "peaks[1] (gel 1, lane 1): gel_id must be a string, got 1",
                     id="non-string-gel_id"),
        pytest.param(lambda d: d["peaks"][1].update(lane=1.5),
                     "peaks[1] (gel G1, lane 1.5): lane must be an integer, got 1.5",
                     id="non-integer-lane"),
        pytest.param(lambda d: d["peaks"][1].update(j="2"),
                     "peaks[1] (gel G1, lane 1): j must be an integer, got '2'", id="string-j"),
        pytest.param(lambda d: d["peaks"][1].update(bin=True),
                     "peaks[1] (gel G1, lane 1): bin must be an integer, got True", id="bool-bin"),
        pytest.param(lambda d: d["peaks"][1].update(location="0.5"),
                     "peaks[1] (gel G1, lane 1): location must be a finite number, got '0.5'",
                     id="string-location"),
        pytest.param(lambda d: d["peaks"][1].update(location=math.nan),
                     "peaks[1] (gel G1, lane 1): location must be a finite number, got nan",
                     id="nan-location"),
        pytest.param(lambda d: d["peaks"][1].update(intensity=math.inf),
                     "peaks[1] (gel G1, lane 1): intensity must be a finite number, got inf",
                     id="inf-intensity"),
        pytest.param(lambda d: d["peaks"][1].update(intensity=None),
                     "peaks[1] (gel G1, lane 1): intensity must be a finite number, got None",
                     id="null-intensity"),
        # a bin past B used to read without error
        pytest.param(lambda d: d["peaks"][1].update(bin=5000),
                     "peaks[1] (gel G1, lane 1): bin 5000 outside 1..100", id="bin-past-B"),
        pytest.param(lambda d: d["peaks"][1].update(location=0.49),
                     "peaks[1] (gel G1, lane 1): location 0.49 is not bin / B = 0.5",
                     id="location-off-bin"),
        # the table's own order checks
        pytest.param(lambda d: d["peaks"][1].update(j=3),
                     "gel G1 lane 1: peak index 3, expected 2", id="j-skipped"),
        pytest.param(lambda d: d["peaks"][1].update(bin=5, location=0.05),
                     "gel G1 lane 1: locations not strictly increasing at j=2",
                     id="location-falls"),
    ])
    def test_from_json_names_file_and_peak(self, tmp_path, edit, message):
        # these used to fail as 'intensity', 'B' or "list indices must be
        # integers or slices, not str", naming neither the file nor the peak
        path = tmp_path / "peaks.json"
        PeakTable([Peak("G1", 1, 1, 10, 0.10, 1.0), Peak("G1", 1, 2, 50, 0.50, 0.25)],
                  100).to_json(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        if edit is None:
            payload = [payload]
        else:
            edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            PeakTable.from_json(path)

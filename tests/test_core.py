import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gelwarp
from gelwarp import core
from gelwarp.core import (
    GelTrace,
    GelwarpWarning,
    IntensityGrid,
    Lane,
    LandmarkGrid,
    Standardizer,
    fit_standardizer,
    lane_name,
    linear_quantiles,
    parse_lane_name,
    read_json,
    read_manifest,
    read_traces_csv,
    standardize_intensities,
    write_json,
    write_json_entries,
    write_manifest,
    write_traces_csv,
)


def make_grid(values_by_lane, B=None, gel_id="G1", reference=None):
    lanes = tuple(
        Lane(i, np.asarray(v, dtype=float), is_reference=(i == reference))
        for i, v in enumerate(values_by_lane, start=1)
    )
    B = B or len(values_by_lane[0])
    return IntensityGrid((GelTrace(gel_id, lanes),), B)


class TestLandmarkGrid:
    def test_knots(self):
        g = LandmarkGrid(4)
        assert g.nu[0] == 0.0 and g.nu[-1] == 1.0
        np.testing.assert_allclose(np.diff(g.nu), 0.2, atol=1e-12)

    @given(st.integers(min_value=1, max_value=400))
    def test_equal_spacing_any_L(self, L):
        g = LandmarkGrid(L)
        assert g.nu.size == L + 2
        np.testing.assert_allclose(np.diff(g.nu), 1.0 / (L + 1), atol=1e-12)
        assert np.all(np.diff(g.nu) > 0)

    def test_interior(self):
        g = LandmarkGrid(3)
        np.testing.assert_allclose(g.interior(), g.nu[1:-1])

    def test_bad_L(self):
        with pytest.raises(ValueError):
            LandmarkGrid(0)


class TestGelTypes:
    def test_lane_indices_contiguous(self):
        with pytest.raises(ValueError):
            GelTrace("G", (Lane(1, [0.0, 1.0]), Lane(3, [0.0, 1.0])))

    def test_single_reference(self):
        with pytest.raises(ValueError):
            GelTrace(
                "G",
                (
                    Lane(1, [0.0, 1.0], is_reference=True),
                    Lane(2, [0.0, 1.0], is_reference=True),
                ),
            )

    def test_grid_time_points(self):
        grid = make_grid([[0.0, 0.5, 1.0, 0.2]])
        np.testing.assert_allclose(grid.t, [0.25, 0.5, 0.75, 1.0])

    def test_lane_length_mismatch(self):
        with pytest.raises(ValueError):
            make_grid([[0.0, 1.0], [0.0, 1.0, 2.0]], B=2)

    def test_lane_lookup(self):
        grid = make_grid([[0.0, 1.0], [1.0, 0.0]], reference=1)
        gel = grid.gel("G1")
        assert gel.reference_lane().index == 1
        assert [ln.index for ln in gel.sample_lanes()] == [2]
        assert grid.lane_keys(include_reference=False) == [("G1", 2)]


class TestLinearQuantiles:
    """linear_quantiles equals np.quantile and np.percentile bit for bit."""

    QS = np.concatenate([[0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0],
                         np.random.default_rng(0).random(40)])

    @pytest.mark.parametrize("data", [
        np.random.default_rng(1).normal(size=37),
        np.random.default_rng(2).random(1000) * 1e3 - 500,
        np.random.default_rng(3).integers(0, 4, size=25).astype(float),  # ties
        np.array([0.3, 0.3, 0.3]),
        np.array([-2.5]),
        np.array([1.0, 2.0]),
        np.array([0.1, np.nan, 0.4]),
    ], ids=["normal", "wide", "tied", "constant", "one", "two", "nan"])
    def test_matches_numpy(self, data):
        got = linear_quantiles(data, self.QS)
        assert got.tobytes() == np.quantile(data, self.QS).tobytes()
        for q in self.QS.tolist():
            assert linear_quantiles(data, q).tobytes() == np.quantile(data, q).tobytes()
        for p in (2.5, 97.5, 50.0, 0.0, 100.0, 33.3):
            assert (linear_quantiles(data, p / 100).tobytes()
                    == np.asarray(np.percentile(data, p)).tobytes())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1,
                    max_size=60),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_matches_numpy_any(self, data, qs):
        # equal values, bit for bit but for the sign of a zero: a sort and
        # numpy's partition may order tied 0.0 and -0.0 differently
        np.testing.assert_array_equal(linear_quantiles(data, qs),
                                      np.quantile(np.array(data), np.array(qs)))


class TestStandardizer:
    def test_two_point(self):
        s = fit_standardizer([0.0, 1.0])
        assert s.center == 0.5
        assert s.scale == pytest.approx(np.std([0.0, 1.0], ddof=1))

    def test_one_two_three(self):
        s = fit_standardizer([1.0, 2.0, 3.0])
        np.testing.assert_allclose(s.apply([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_round_trip(self):
        x = np.array([0.1, 0.7, 0.3])
        s = fit_standardizer(x)
        np.testing.assert_allclose(s.invert(s.apply(x)), x, atol=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_standardizer([2.0, 2.0, 2.0])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=30,
        ).filter(lambda v: max(v) - min(v) > 1e-6)
    )
    def test_round_trip_any(self, values):
        s = fit_standardizer(values)
        z = s.apply(values)
        assert abs(float(np.mean(z))) < 1e-10
        assert float(np.std(z, ddof=1)) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(s.invert(z), values, atol=1e-6 * max(map(abs, values)) + 1e-10)

    def test_serialization(self):
        s = Standardizer(center=0.25, scale=2.0)
        assert Standardizer.from_dict(s.to_dict()) == s


class TestStandardizeIntensities:
    def test_minmax(self):
        grid = standardize_intensities(make_grid([[2.0, 4.0, 6.0]]))
        np.testing.assert_allclose(grid.gel("G1").lane(1).intensity, [0.0, 0.5, 1.0])

    def test_minmax_unordered(self):
        grid = standardize_intensities(make_grid([[1.0, 3.0, 2.0]]))
        np.testing.assert_allclose(grid.gel("G1").lane(1).intensity, [0.0, 1.0, 0.5])

    def test_constant_lane_warns(self):
        with pytest.warns(GelwarpWarning):
            grid = standardize_intensities(make_grid([[5.0, 5.0, 5.0]]))
        np.testing.assert_allclose(grid.gel("G1").lane(1).intensity, 0.0)


def sorting_read_traces(path, manifest=None) -> IntensityGrid:
    """The reader that sorts every file: a reference for the one that reads
    rows in the writer's order in place."""
    rows = core._load_rows(path)
    if rows.size != core._line_count(path) - 1:
        heads, ids = core._raise_row_error(path)
    elif rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    else:
        heads = core._run_heads(rows["gel"])
        ids = rows["gel"][heads].tolist()
        if max(map(len, ids)) >= core._GEL_WIDTH:
            heads, ids = core._gel_runs(path)
        else:
            ids = [h.decode() for h in ids]

    rank: dict[str, int] = {}
    head_rank = [rank.setdefault(h, len(rank)) for h in ids]
    gel_ids = list(rank)
    ranks = np.repeat(np.array(head_rank, dtype=np.min_scalar_type(len(rank) - 1)),
                      np.diff(heads, append=rows.size))

    idx = np.lexsort((rows["bin"], rows["lane"], ranks))
    g, lane, bins = ranks[idx], rows["lane"][idx], rows["bin"][idx]

    same_lane = (g[1:] == g[:-1]) & (lane[1:] == lane[:-1])
    dup = same_lane & (bins[1:] == bins[:-1])
    if dup.any():
        r = int(idx[1:][dup].min())
        raise ValueError(
            f"gel {gel_ids[ranks[r]]} lane {rows['lane'][r]}: "
            f"duplicate bin {rows['bin'][r]}"
        )
    starts = np.flatnonzero(np.concatenate(([True], ~same_lane)))
    counts = np.diff(np.append(starts, idx.size))
    pos = np.arange(idx.size) - np.repeat(starts, counts) + 1
    complete = np.logical_and.reduceat(bins == pos, starts)
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


def read_outcome(read, path, manifest):
    """A grid as comparable values (intensities as their bytes), or the
    message it fails with."""
    try:
        grid = read(path, manifest)
    except ValueError as exc:
        return str(exc)
    return grid.B, [(g.gel_id, [(ln.index, ln.is_reference, ln.intensity.tobytes())
                                for ln in g.lanes]) for g in grid.gels]


# short, quoted, and 16 bytes or more, which are read a second time
ODD_GEL_IDS = ["G1", "g2", 'q"t,1', " sp ", "p" * 16, "é" * 9 + "-long"]


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        grid = make_grid([[0.0, 0.5, 1.0], [1.0, 0.2, 0.8]], reference=1)
        path = tmp_path / "traces.csv"
        write_traces_csv(grid, path)
        manifest = {"G1": {"reference_lane": 1}}
        write_manifest(manifest, tmp_path / "manifest.json")
        back = read_traces_csv(path, read_manifest(tmp_path / "manifest.json"))
        assert back.B == 3
        assert back.gel("G1").reference_lane().index == 1
        for lane in grid.gel("G1").lanes:
            np.testing.assert_array_equal(
                back.gel("G1").lane(lane.index).intensity, lane.intensity
            )

    def test_missing_bin_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "gel_id,lane,bin,intensity\nG1,1,1,0.0\nG1,1,3,0.5\n"
        )
        with pytest.raises(ValueError, match="gel G1 lane 1: missing bin 2"):
            read_traces_csv(path)

    def test_duplicate_bin(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "gel_id,lane,bin,intensity\nG1,1,1,0.0\nG1,1,1,0.5\n"
        )
        with pytest.raises(ValueError, match="duplicate bin"):
            read_traces_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("G1,1,1,0.0\nG1,1,2\n", ":3: expected 4 columns, got 3"),
            ("G1,1,1,0.0\nG1,1,2,0.5,9\n", ":3: expected 4 columns, got 5"),
            ("G1,1,1,0.0\n  \nG1,1,2,0.5\n", ":3: expected 4 columns, got 1"),
            ("G1,1,1,0.0\n\nG1,1,2,0.5\n", ":3: expected 4 columns, got 0"),
            ("G1,1,1,0.0\nG1,1,2,0.5\n\n", ":4: expected 4 columns, got 0"),
            ("G1,1,1,0.0\r\n\r\nG1,1,2,0.5\r\n", ":3: expected 4 columns, got 0"),
            ("G1,1,1,0.0\r\rG1,1,2,0.5\r", ":3: expected 4 columns, got 0"),
            ("G1,1,1,0.0\n\rG1,1,2,0.5\n", ":3: expected 4 columns, got 0"),
            ("G1,1,1,0.0\nG1,1.5,2,0.5\n",
             ":3: invalid literal for int() with base 10: '1.5'"),
            ("G1,1,x,0.0\n", ":2: invalid literal for int() with base 10: 'x'"),
            ("G1,1,1,0.0\nG1,1,2,abc\n", ":3: could not convert string to float: 'abc'"),
        ],
    )
    def test_malformed_row_named_by_line(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("gel_id,lane,bin,intensity\n" + body)
        with pytest.raises(ValueError) as err:
            read_traces_csv(path)
        assert str(err.value) == f"{path}{message}"

    def test_int_parsed_via_float_is_row_error(self, tmp_path, monkeypatch):
        # numpy 1.x reads "1.5" into an int field as 1, with a DeprecationWarning
        def loadtxt(*args, dtype, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated",
                          DeprecationWarning, stacklevel=2)
            return np.zeros(0, dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        path = tmp_path / "float_lane.csv"
        path.write_text("gel_id,lane,bin,intensity\nG1,1.5,1,0.0\n")
        with pytest.raises(ValueError) as err:
            read_traces_csv(path)
        assert str(err.value) == f"{path}:2: invalid literal for int() with base 10: '1.5'"

    @pytest.mark.parametrize("lane", [2**31, -(2**31) - 1])
    def test_lane_beyond_32_bits_is_rejected(self, tmp_path, lane):
        path = tmp_path / "big_lane.csv"
        path.write_text(f"gel_id,lane,bin,intensity\nG1,{lane},1,0.0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{lane}.*int32"):
            read_traces_csv(path)

    @pytest.mark.parametrize(
        "body, gel_id",
        [
            ("G1,1,1,0.0\rG1,1,2,0.5\r", "G1"),
            ('"G\n1",1,1,0.0\r\n"G\n1",1,2,0.5\r\n', "G\n1"),
            ('"G\n\n1",1,1,0.0\n"G\n\n1",1,2,0.5', "G\n\n1"),
        ],
    )
    def test_line_breaks_read_as_csv_reads_them(self, tmp_path, body, gel_id):
        path = tmp_path / "lines.csv"
        path.write_bytes(b"gel_id,lane,bin,intensity\n" + body.encode())
        grid = read_traces_csv(path)
        assert [g.gel_id for g in grid.gels] == [gel_id]
        np.testing.assert_array_equal(grid.gel(gel_id).lane(1).intensity, [0.0, 0.5])

    def test_bin_count_mismatch(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "gel_id,lane,bin,intensity\nG1,1,1,0.0\nG1,1,2,0.1\nG1,1,3,0.2\n"
            "G1,2,1,0.0\nG1,2,2,0.1\n"
        )
        with pytest.raises(ValueError, match="^gel G1 lane 2: 2 bins, expected 3$"):
            read_traces_csv(path)

    def test_duplicate_bin_names_lane(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "gel_id,lane,bin,intensity\nG1,1,1,0.0\nG1,1,2,0.5\n"
            "G1,2,2,0.0\nG1,2,1,0.5\nG1,2,2,0.7\n"
        )
        with pytest.raises(ValueError, match="^gel G1 lane 2: duplicate bin 2$"):
            read_traces_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("gel_id,lane,bin,intensity\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_traces_csv(path)

    def test_bad_header_named(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("gel,lane,bin,intensity\nG1,1,1,0.0\n")
        with pytest.raises(ValueError, match="expected header gel_id,lane,bin,intensity"):
            read_traces_csv(path)

    def test_hash_gel_id_is_data(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("gel_id,lane,bin,intensity\n#7,1,1,0.25\n#7,1,2,0.5\n")
        grid = read_traces_csv(path)
        np.testing.assert_array_equal(grid.gel("#7").lane(1).intensity, [0.25, 0.5])

    def test_quoted_gel_id_round_trips(self, tmp_path):
        gel_id = 'gel "a", run 2'
        grid = make_grid([[0.0, 0.5], [1.0, 0.25]], gel_id=gel_id)
        path = tmp_path / "q.csv"
        write_traces_csv(grid, path)
        back = read_traces_csv(path)
        assert [g.gel_id for g in back.gels] == [gel_id]
        np.testing.assert_array_equal(back.gel(gel_id).lane(2).intensity, [1.0, 0.25])

    def test_gel_first_seen_order_and_sorted_lanes(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text(
            "gel_id,lane,bin,intensity\n"
            "Zeta,2,2,0.4\nZeta,2,1,0.3\nAlpha,1,1,0.5\nZeta,1,1,0.1\n"
            "Alpha,1,2,0.6\nZeta,1,2,0.2\n"
        )
        grid = read_traces_csv(path, {"Zeta": {"reference_lane": 2}})
        assert [g.gel_id for g in grid.gels] == ["Zeta", "Alpha"]
        assert [ln.index for ln in grid.gel("Zeta").lanes] == [1, 2]
        assert grid.gel("Zeta").reference_lane().index == 2
        np.testing.assert_array_equal(
            grid.matrix(), [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
        )

    @staticmethod
    def csv_writer_bytes(grid):
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(("gel_id", "lane", "bin", "intensity"))
        for gel in grid.gels:
            for lane in gel.lanes:
                for b, val in enumerate(lane.intensity, start=1):
                    writer.writerow([gel.gel_id, lane.index, b, repr(float(val))])
        return want.getvalue().encode()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["G1", "a,b", 'q"t', " sp ", ""]))
    @settings(max_examples=30, deadline=None)
    def test_writer_matches_csv_writer(self, tmp_path_factory, seed, odd_id):
        rng = np.random.default_rng(seed)
        B = int(rng.integers(1, 12))
        gels = []
        for gel_id in ("G0", odd_id + "x"):
            lanes = tuple(
                Lane(i, rng.normal(size=B) * 10.0 ** rng.integers(-8, 8))
                for i in range(1, int(rng.integers(1, 4)) + 1)
            )
            gels.append(GelTrace(gel_id, lanes))
        grid = IntensityGrid(tuple(gels), B)
        path = tmp_path_factory.mktemp("w") / "t.csv"
        write_traces_csv(grid, path)
        assert path.read_bytes() == self.csv_writer_bytes(grid)
        back = read_traces_csv(path)
        np.testing.assert_array_equal(back.matrix(), grid.matrix())

    @pytest.mark.parametrize("values", [
        [[-0.0, 5e-324, 1e300, 1 / 3, 0.1 + 0.2], [0.1 + 0.2, 1 / 3, 1e300, 5e-324, -0.0]],
        [[2.5e-8], [-1e22]],
    ], ids=["edge_values", "one_bin"])
    def test_writer_matches_csv_writer_on(self, tmp_path, values):
        grid = make_grid(values)
        path = tmp_path / "w.csv"
        write_traces_csv(grid, path)
        assert path.read_bytes() == self.csv_writer_bytes(grid)
        np.testing.assert_array_equal(read_traces_csv(path).matrix(), grid.matrix())

    @pytest.mark.parametrize("n_bytes", [16, 40, 70])
    def test_long_gel_ids_stay_distinct(self, tmp_path, n_bytes):
        # as long as the first parse's id field or longer, and equal in all
        # but their last 8 bytes
        ids = ["p" * (n_bytes - 8) + "-second!", "p" * (n_bytes - 8) + "-first!!"]
        assert [len(i.encode()) for i in ids] == [n_bytes, n_bytes]
        gels = tuple(GelTrace(gel_id, (Lane(1, [float(k), 0.5]),))
                     for k, gel_id in enumerate(ids))
        path = tmp_path / "long.csv"
        write_traces_csv(IntensityGrid(gels, 2), path)
        back = read_traces_csv(path)
        assert [g.gel_id for g in back.gels] == ids
        np.testing.assert_array_equal(back.matrix(), [[0.0, 0.5], [1.0, 0.5]])

    def test_long_gel_ids_across_read_blocks(self, tmp_path):
        # long ids are read again in blocks of about 1 MB of lines; here the
        # second gel's rows cross a block's end
        ids = ["é" * 35, '"a,b"' * 14, "G" * 70, "日本"]
        rng = np.random.default_rng(3)
        grid = IntensityGrid(tuple(
            GelTrace(gel_id, (Lane(2, rng.random(3000)), Lane(1, rng.random(3000))))
            for gel_id in ids
        ), 3000)
        path = tmp_path / "blocks.csv"
        write_traces_csv(grid, path)
        assert path.stat().st_size > 2 << 20
        back = read_traces_csv(path)
        assert [g.gel_id for g in back.gels] == ids
        assert [[lane.index for lane in g.lanes] for g in back.gels] == [[1, 2]] * 4
        np.testing.assert_array_equal(
            back.matrix(), [lane.intensity for g in grid.gels for lane in g.lanes[::-1]]
        )

    @pytest.mark.parametrize("gel_ids", [("日本", "Gél"), ("x\ry", "x\r\ny", "x\ny")])
    def test_gel_ids_read_back_through_writer(self, tmp_path, gel_ids):
        grid = IntensityGrid(tuple(
            GelTrace(gel_id, (Lane(1, [float(k)]), Lane(2, [0.25])))
            for k, gel_id in enumerate(gel_ids)
        ), 1)
        path = tmp_path / "ids.csv"
        write_traces_csv(grid, path)
        back = read_traces_csv(path)
        assert [g.gel_id for g in back.gels] == list(gel_ids)
        np.testing.assert_array_equal(back.matrix(), grid.matrix())

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_read_matches_sorting_reference(self, tmp_path_factory, data):
        ids = data.draw(st.lists(st.sampled_from(ODD_GEL_IDS), min_size=1, max_size=3,
                                 unique=True))
        n_lanes = data.draw(st.lists(st.integers(1, 4), min_size=len(ids),
                                     max_size=len(ids)))
        B = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grid = IntensityGrid(tuple(
            GelTrace(gel_id, tuple(Lane(i, rng.normal(size=B)) for i in range(1, n + 1)))
            for gel_id, n in zip(ids, n_lanes)
        ), B)
        manifest = {gel_id: {"reference_lane": int(rng.integers(1, 5))} for gel_id in ids}
        path = tmp_path_factory.mktemp("ref") / "t.csv"
        write_traces_csv(grid, path)
        header, *rows = path.read_bytes().decode().split("\r\n")[:-1]

        permuted = data.draw(st.permutations(rows))
        changed = list(data.draw(st.sampled_from([rows, permuted])))
        i = data.draw(st.integers(0, len(changed) - 1))
        kind = data.draw(st.sampled_from(["drop", "duplicate", "extra bin"]))
        if kind == "drop":
            del changed[i]
        elif kind == "duplicate":
            changed.insert(i, changed[i])
        else:
            lane_fields, _, value = changed[i].rsplit(",", 2)
            changed.insert(i + 1, f"{lane_fields},{B + 1},{value}")

        for variant in (rows, permuted, changed):
            path.write_bytes("".join(f"{line}\r\n" for line in [header, *variant])
                             .encode())
            assert (read_outcome(read_traces_csv, path, manifest)
                    == read_outcome(sorting_read_traces, path, manifest))

    def test_written_order_is_read_without_a_sort(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        grid = IntensityGrid(tuple(
            GelTrace(gel_id, tuple(Lane(i, rng.random(1000)) for i in range(1, 26)))
            for gel_id in ("g1", "g2", "g3", "g4")
        ), 1000)
        path = tmp_path / "big.csv"
        write_traces_csv(grid, path)
        read_traces_csv(path)
        tracemalloc.start()
        try:
            back = read_traces_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 32 bytes of parsed row and 8 of intensity each, with no sort,
        # gather or int64 position array beside them
        assert peak < 52 * 100_000, peak / 100_000
        np.testing.assert_array_equal(back.matrix(), grid.matrix())

        def no_sort(*args, **kwargs):
            raise AssertionError("np.lexsort ran")

        monkeypatch.setattr(np, "lexsort", no_sort)
        np.testing.assert_array_equal(read_traces_csv(path).matrix(), grid.matrix())

    @pytest.fixture
    def no_rescan(self, monkeypatch):
        """Fail if the row-by-row csv re-scan runs."""
        def rescan(path):
            raise AssertionError("re-scan ran")

        monkeypatch.setattr(core, "_raise_row_error", rescan)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("final_end", [True, False], ids=["final_end", "no_final_end"])
    def test_well_formed_file_is_not_rescanned(self, tmp_path, no_rescan, end, final_end):
        lines = ["gel_id,lane,bin,intensity", "G1,1,1,0.0", "G1,1,2,0.5", "G2,1,1,1.0",
                 "G2,1,2,1.5"]
        path = tmp_path / "ok.csv"
        path.write_bytes((end.join(lines) + (end if final_end else "")).encode())
        back = read_traces_csv(path)
        assert [g.gel_id for g in back.gels] == ["G1", "G2"]
        np.testing.assert_array_equal(back.matrix(), [[0.0, 0.5], [1.0, 1.5]])

    def test_crlf_split_across_count_blocks_is_not_rescanned(self, tmp_path, no_rescan):
        # the line count reads the file in blocks that divide 1 MB: end a
        # block at 1 MB between a CR and its LF by padding the first value
        # with zeros
        header = b"gel_id,lane,bin,intensity\r\n"
        rows = [b"G1,1,%d,0.5\r\n" % b for b in range(1, 90001)]
        cr_at = len(header) + np.cumsum([len(r) for r in rows]) - 2
        pad = (1 << 20) - 1 - cr_at[cr_at <= (1 << 20) - 1][-1]
        rows[0] = b"G1,1,1,0.5" + b"0" * int(pad) + b"\r\n"
        data = header + b"".join(rows)
        assert data[(1 << 20) - 1 : (1 << 20) + 1] == b"\r\n"
        path = tmp_path / "split.csv"
        path.write_bytes(data)
        back = read_traces_csv(path)
        assert back.B == len(rows)
        assert np.all(back.matrix() == 0.5)

    @pytest.mark.parametrize("data, want", [
        ("gel_id,lane,bin,intensity\nGél,1,1,0.5\nGél,1,2,0.25\n".encode(), "['G\\xe9l']"),
        (b"gel_id,lane,bin,intensity\nG\xffl,1,1,0.5\n", "ValueError: {path}: not UTF-8 text"),
        (b"gel_id,lane,bin,intensity\nG1,1,1,0.5\nG1,1,2,\xff\n",
         "ValueError: {path}: not UTF-8 text"),
    ], ids=["utf8_id", "bad_id", "bad_value"])
    def test_read_is_utf8_in_c_locale(self, tmp_path, data, want):
        path = tmp_path / "loc.csv"
        path.write_bytes(data)
        src = str(Path(gelwarp.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\n"
            "from gelwarp.core import read_traces_csv\n"
            "try:\n"
            "    print(ascii([g.gel_id for g in read_traces_csv(sys.argv[1]).gels]))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n"
        )
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.startswith(want.format(path=path)), out.stdout

    def test_header_required(self, tmp_path):
        path = tmp_path / "nh.csv"
        path.write_text("G1,1,1,0.0\n")
        with pytest.raises(ValueError, match="header"):
            read_traces_csv(path)

    def test_manifest_bad_mask(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"G1": {"masked_intervals": [[0.9, 0.2]]}}')
        with pytest.raises(ValueError, match="masked interval"):
            read_manifest(path)

    @pytest.mark.parametrize("entry,msg", [
        ({"reference_lane": True}, "reference_lane must be an integer >= 1, got True"),
        ({"reference_lane": 0}, "reference_lane must be an integer >= 1, got 0"),
        ({"reference_lane": 2.0}, "reference_lane must be an integer >= 1, got 2.0"),
        ({"masked_intervals": [[0.1]]}, "bad masked interval [0.1], expected a [lo, hi]"),
        ({"masked_intervals": [0.2, 0.3]}, "bad masked interval 0.2, expected a [lo, hi]"),
        ({"masked_intervals": [["a", "b"]]},
         "bad masked interval ['a', 'b'], expected a [lo, hi]"),
        ({"masked_intervals": [[True, 0.5]]}, "bad masked interval [True, 0.5], expected"),
        ({"masked_intervals": {"lo": 0.1}}, "masked_intervals must be a list of [lo, hi] pairs"),
        ({"reference_kda": "abc"}, "reference_kda must be a list of positive numbers, got 'abc'"),
        ({"reference_kda": [250, -5]}, "reference_kda must be a list of positive numbers"),
        ({"reference_kda": [250, None]}, "reference_kda must be a list of positive numbers"),
    ])
    def test_manifest_malformed_entry_names_file_and_gel(self, tmp_path, entry, msg):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"G1": {"reference_lane": 1}, "G2": entry}))
        with pytest.raises(ValueError, match=re.escape(f"manifest {path}: gel G2: {msg}")):
            read_manifest(path)

    def test_manifest_well_formed_entry_reads_back(self, tmp_path):
        manifest = {"G1": {"reference_lane": 3, "reference_kda": [250, 37.5],
                           "masked_intervals": [[0, 0.25], [0.5, 1.0]]}, "G2": {}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert read_manifest(path) == manifest


def csv_line_count(path) -> int:
    """The lines of a file as the csv module splits them."""
    with open(path, newline="", encoding="latin-1") as f:
        return sum(1 for _ in csv.reader(f))


def block_edge_cases():
    """Line ends on either side of a read block's end, for blocks of 64 kB
    and 256 kB: a CRLF split across it, a lone CR or an LF ending it, and an
    LF or a CR opening the next block."""
    cases = []
    for edge in (1 << 16, 1 << 18):
        body = b"G1,1,1,0.5" * (edge // 10)
        head = body[: edge - 1]
        cases += [
            pytest.param(head + b"\r\nG1\r\n", id=f"crlf_split_{edge}"),
            pytest.param(head + b"\rG1\n", id=f"cr_at_end_{edge}"),
            pytest.param(head + b"\n\rG1", id=f"lf_at_end_{edge}"),
            pytest.param(body[:edge] + b"\nG1\n", id=f"lf_opens_{edge}"),
            pytest.param(body[:edge] + b"\r\r\n", id=f"cr_opens_{edge}"),
        ]
    return cases


class TestLineCount:
    """core._line_count counts a file's lines as csv splits them, reading
    it a block at a time."""

    @pytest.mark.parametrize("data", [
        pytest.param(b"", id="empty"),
        pytest.param(b"a,1\nb,2\n", id="LF"),
        pytest.param(b"a,1\r\nb,2\r\n", id="CRLF"),
        pytest.param(b"a,1\rb,2\r", id="lone_CR"),
        pytest.param(b"a,1\nb,2", id="no_final_LF"),
        pytest.param(b"a,1\r\nb,2", id="no_final_CRLF"),
        pytest.param(b"a,1\rb,2", id="no_final_CR"),
        pytest.param(b"\n\r\n\r\r\n\n", id="blank_lines"),
        pytest.param(b"a\r\rb\n\r", id="mixed"),
        *block_edge_cases(),
    ])
    def test_matches_csv(self, tmp_path, data):
        path = tmp_path / "lines.csv"
        path.write_bytes(data)
        assert core._line_count(path) == csv_line_count(path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([b"a", b",", b"\r", b"\n", b"\r\n"]), max_size=40))
    def test_matches_csv_on_any_line_ends(self, tmp_path_factory, parts):
        path = tmp_path_factory.mktemp("count") / "lines.csv"
        path.write_bytes(b"".join(parts))
        assert core._line_count(path) == csv_line_count(path)

    def test_traced_peak_stays_small(self, tmp_path):
        # the byte masks of one block are all it holds: about 0.33 MB for
        # blocks of 64 kB, where blocks of 256 kB held 1.3 MB
        path = tmp_path / "big.csv"
        n = (1 << 20) // 12
        path.write_bytes(b"G1,1,1,0.5\r\n" * n)
        tracemalloc.start()
        try:
            count = core._line_count(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == n
        assert peak < 500_000, peak


class TestNamesAndJson:
    @pytest.mark.parametrize("key", [("g1", 2), ("run:2024:a", 11), (":", 1)])
    def test_lane_name_round_trip(self, key):
        assert lane_name(key) == f"{key[0]}:{key[1]}"
        assert parse_lane_name(lane_name(key)) == key

    @pytest.mark.parametrize("indent", [None, 1, 2])
    def test_write_json(self, tmp_path, indent):
        payload = {"b": [1.5, {"z": None, "a": "x"}], "a": 1}
        path = tmp_path / "new" / "dir" / "out.json"
        write_json(payload, path, indent=indent)
        text = path.read_text()
        assert text == json.dumps(payload, indent=indent, sort_keys=True) + "\n"
        assert json.loads(text) == payload
        assert read_json(path) == payload

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=8)

    @settings(max_examples=100, deadline=None)
    @given(payload=st.dictionaries(st.text(), json_values, max_size=4),
           key=st.sampled_from(["lanes", "L", "", "é\"", "a"]),
           items=st.dictionaries(st.text() | st.sampled_from(["g1:2", "g1:10", 'gé"1:1']),
                                 json_values, max_size=5))
    def test_write_json_entries_matches_write_json(self, tmp_path_factory, payload, key, items):
        # entries go in sorted name order ("g1:10" before "g1:2"), a payload
        # value under the entries' key is replaced, and each entry is built once
        d = tmp_path_factory.mktemp("entries")
        built = []

        def build(value):
            built.append(value)
            return value

        write_json_entries(payload, d / "entries.json", key, items, build)
        write_json(payload | {key: items}, d / "whole.json")
        assert (d / "entries.json").read_bytes() == (d / "whole.json").read_bytes()
        assert built == [items[name] for name in sorted(items)]

    @pytest.mark.parametrize("data, msg", [
        (b'{"G1": {"reference_lane": 1', "Expecting ',' delimiter"),
        (b'{"G\xe9l": {}}', "'utf-8' codec can't decode byte 0xe9"),
    ], ids=["truncated", "not_utf8"])
    def test_read_json_names_file(self, tmp_path, data, msg):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {msg}")):
            read_json(path)

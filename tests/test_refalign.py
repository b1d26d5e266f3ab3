import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gelwarp.core import standardize_intensities
from gelwarp.peakdetect import Peak, PeakConfig, PeakTable, detect_peaks
from gelwarp.refalign import (
    PiecewiseLinearMap,
    apply_map,
    build_map,
    match_references,
    read_maps,
    reference_align,
    resample_lane,
    write_maps,
)
from gelwarp.simulate import SimSpec, simulate_gels


def ref_peak(gel, loc, intensity=1.0, j=1):
    return Peak(gel, 1, j, max(1, int(round(loc * 500))), loc, intensity)


def make_ref_lane(gel, locs, intensities=None):
    intensities = intensities or [1.0] * len(locs)
    return [
        ref_peak(gel, loc, inten, j)
        for j, (loc, inten) in enumerate(sorted(zip(locs, intensities)), start=1)
    ]


class TestPiecewiseLinearMap:
    def test_identity(self):
        m = build_map([(0.2, 0.2), (0.7, 0.7)])
        for t in (0.0, 0.13, 0.5, 0.99, 1.0):
            assert apply_map(m, t) == pytest.approx(t)

    def test_interpolation_first_segment(self):
        m = build_map([(0.5, 0.4)])
        assert apply_map(m, 0.25) == pytest.approx(0.2)

    def test_interpolation_second_segment(self):
        m = build_map([(0.5, 0.4)])
        assert apply_map(m, 0.75) == pytest.approx(0.7)

    def test_knots_map_exactly(self):
        q = [0.1, 0.4, 0.8]
        t = [0.15, 0.38, 0.82]
        m = build_map(zip(q, t))
        np.testing.assert_allclose(apply_map(m, np.array(q)), t)

    def test_crossing_knots_rejected(self):
        with pytest.raises(ValueError, match="crossing knots"):
            PiecewiseLinearMap(np.array([0.0, 0.5, 0.4, 1.0]), np.array([0.0, 0.4, 0.5, 1.0]))

    @given(
        st.lists(
            st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
            min_size=1,
            max_size=6,
        ),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @example(raw=[(0.5, 0.25)], t1=0.0, t2=5e-324)
    @settings(max_examples=150)
    def test_strictly_increasing(self, raw, t1, t2):
        qs = sorted(set(round(q, 3) for q, _ in raw))
        ts = sorted(set(round(v, 3) for _, v in raw))
        n = min(len(qs), len(ts))
        if n == 0 or t1 == t2:
            return
        m = build_map(zip(qs[:n], ts[:n]))
        lo, hi = min(t1, t2), max(t1, t2)
        a, b = apply_map(m, lo), apply_map(m, hi)
        assert a <= b
        # a segment whose slope is below 1 can round a gap of a few
        # subnormals to nothing, so strictness needs a gap it can resolve
        if hi - lo >= 1e-9:
            assert a < b

    def test_round_trip_composition(self):
        m = build_map([(0.2, 0.3), (0.6, 0.55), (0.9, 0.92)])
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(apply_map(m.inverse(), apply_map(m, x)), x, atol=1e-10)

    def test_serialization(self, tmp_path):
        maps = {
            "G1": build_map([(0.2, 0.3)]),
            "G2": build_map([(0.4, 0.35), (0.8, 0.85)]),
        }
        write_maps(maps, tmp_path / "maps.json")
        back = read_maps(tmp_path / "maps.json")
        assert set(back) == {"G1", "G2"}
        for gid in maps:
            np.testing.assert_allclose(back[gid].query_knots, maps[gid].query_knots)
            np.testing.assert_allclose(back[gid].template_knots, maps[gid].template_knots)


class TestMatchReferences:
    KEYS = (("A", 1), ("B", 1))

    def test_already_aligned(self):
        locs = [0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9]
        q, t = match_references(make_ref_lane("A", locs), make_ref_lane("B", locs), 7, self.KEYS)
        np.testing.assert_allclose(q, t)
        np.testing.assert_allclose(q, locs)

    def test_uniform_shift(self):
        locs = np.array([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.85])
        q, t = match_references(
            make_ref_lane("A", (locs + 0.01).tolist()), make_ref_lane("B", locs.tolist()), 7,
            self.KEYS,
        )
        np.testing.assert_allclose(q - t, 0.01)

    def test_most_intense_win(self):
        # an 8th dim peak must be dropped in favor of the 7 bright ones
        locs = [0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9]
        inten = [0.1] + [1.0] * 7
        q, t = match_references(
            make_ref_lane("A", locs, inten), make_ref_lane("B", locs, inten), 7, self.KEYS
        )
        assert q.size == 7
        assert 0.05 not in q

    def test_shortfall_named(self):
        six = make_ref_lane("A", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        seven = make_ref_lane("B", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        with pytest.raises(ValueError, match="gel A.*short by 1"):
            match_references(six, seven, 7, self.KEYS)


def two_gel_instance(seed=0, refwarp=0.05):
    sigs = ((5, 20, 35), (10, 28, 44))
    spec = SimSpec(
        n_gels=2,
        lanes_per_gel=3,
        B=500,
        L=50,
        signatures=sigs,
        n_replicates=3,
        refwarp_amplitude=refwarp,
    )
    return simulate_gels(spec, np.random.default_rng(seed))


class TestReferenceAlign:
    def detect(self, grid):
        return detect_peaks(standardize_intensities(grid), PeakConfig(h=8, c0=0.05))

    def test_single_gel_identity(self):
        grid, manifest, truth = two_gel_instance(refwarp=0.0)
        peaks = self.detect(grid)
        aligned, maps = reference_align(grid, peaks, template_gel=grid.gels[0].gel_id)
        g0 = grid.gels[0].gel_id
        np.testing.assert_allclose(maps[g0].query_knots, maps[g0].template_knots)
        for lane in grid.gel(g0).lanes:
            np.testing.assert_array_equal(
                aligned.gel(g0).lane(lane.index).intensity, lane.intensity
            )

    def test_references_coincide_after_alignment(self):
        grid, manifest, truth = two_gel_instance(seed=3)
        peaks = self.detect(grid)
        template = grid.gels[0].gel_id
        aligned, _ = reference_align(grid, peaks, template_gel=template)
        peaks2 = self.detect(aligned)
        ref_locs = {}
        for gel in aligned.gels:
            ref = gel.reference_lane()
            lane_pk = peaks2.lane_peaks(gel.gel_id, ref.index)
            top7 = sorted(lane_pk, key=lambda p: -p.intensity)[:7]
            ref_locs[gel.gel_id] = np.sort([p.location for p in top7])
        ids = list(ref_locs)
        np.testing.assert_allclose(
            ref_locs[ids[0]], ref_locs[ids[1]], atol=1.0 / aligned.B + 1e-12
        )

    def test_unknown_template_names_gels(self):
        grid, manifest, truth = two_gel_instance()
        ids = ", ".join(g.gel_id for g in grid.gels)
        with pytest.raises(ValueError, match=re.escape(
                f"template 'nope' is not a gel of the traces, which hold gels {ids}")):
            reference_align(grid, self.detect(grid), template_gel="nope")

    def test_reference_lane_with_no_peaks_named(self):
        # with every peak of g2 masked, the shortfall used to name "gel <empty>"
        grid, manifest, truth = two_gel_instance()
        peaks = self.detect(grid).filter(lambda p: p.gel_id != "g2")
        lane = grid.gel("g2").reference_lane().index
        with pytest.raises(ValueError, match=re.escape(
                f"gel g2: reference lane {lane} has 0 peaks, expected 7 (short by 7)")):
            reference_align(grid, peaks, template_gel="g1")
        with pytest.raises(ValueError, match=re.escape(
                f"gel g2: reference lane {lane} has 0 peaks, expected 7 (short by 7)")):
            reference_align(grid, peaks, template_gel="g2")

    def test_missing_reference_lane(self):
        grid, manifest, truth = two_gel_instance()
        from gelwarp.core import GelTrace, IntensityGrid, Lane

        stripped = IntensityGrid(
            tuple(
                GelTrace(
                    g.gel_id,
                    tuple(Lane(ln.index, ln.intensity, False) for ln in g.lanes),
                )
                for g in grid.gels
            ),
            grid.B,
        )
        peaks = self.detect(grid)
        with pytest.raises(ValueError, match="reference"):
            reference_align(stripped, peaks, template_gel=grid.gels[0].gel_id)

    def test_peak_count_preserved_by_resampling(self):
        grid, manifest, truth = two_gel_instance(seed=9)
        peaks = self.detect(grid)
        template = grid.gels[0].gel_id
        aligned, _ = reference_align(grid, peaks, template_gel=template)
        peaks2 = self.detect(aligned)
        assert peaks2.counts() == peaks.counts()


def test_resample_reads_inverse_positions():
    # a map that stretches [0, 0.5] to [0, 0.6]: the aligned trace at 0.6
    # must read the source at 0.5
    t = np.arange(1, 501) / 500
    src = np.exp(-0.5 * ((t - 0.5) / 0.01) ** 2)
    m = build_map([(0.5, 0.6)])
    out = resample_lane(src, t, m)
    assert t[np.argmax(out)] == pytest.approx(0.6, abs=2.0 / 500)

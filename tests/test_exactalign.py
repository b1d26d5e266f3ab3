import re

import numpy as np
import pytest

from gelwarp.core import GelTrace, IntensityGrid, Lane, LandmarkGrid, standardize_intensities
from gelwarp.exactalign import exact_align, invert_warp, lane_map, repair_assignment
from gelwarp.peakdetect import PeakConfig, detect_peaks
from gelwarp.refalign import apply_map
from gelwarp.simulate import SimSpec, simulate_gels, true_assignments


def gaussian_lane(t, centers, width=0.004):
    lane = np.zeros_like(t)
    for c in centers:
        lane += np.exp(-0.5 * ((t - c) / width) ** 2)
    return lane


class TestRepairAssignment:
    def test_strict_passes_through(self):
        assert repair_assignment([3, 7, 10], 50) == (3, 7, 10)

    def test_duplicate_bumped(self):
        assert repair_assignment([3, 3, 10], 50) == (3, 4, 10)

    def test_cascade(self):
        assert repair_assignment([3, 3, 3, 3], 50) == (3, 4, 5, 6)

    def test_past_last_landmark(self):
        with pytest.raises(ValueError, match="strictly"):
            repair_assignment([5, 5], 5)
        with pytest.raises(ValueError, match="strictly"):
            repair_assignment([3, 4, 5, 5], 5)


class TestLaneMap:
    def test_fixes_endpoints_and_knots(self):
        L = 50
        nu = LandmarkGrid(L).nu
        m = lane_map([0.41, 0.62], [20, 31], L)
        assert apply_map(m, 0.0) == 0.0
        assert apply_map(m, 1.0) == 1.0
        assert apply_map(m, 0.41) == pytest.approx(nu[20])
        assert apply_map(m, 0.62) == pytest.approx(nu[31])

    def test_strictly_increasing(self):
        m = lane_map([0.2, 0.4, 0.8], [5, 25, 45], 50)
        x = np.linspace(0, 1, 301)
        assert np.all(np.diff(apply_map(m, x)) > 0)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="assignments"):
            lane_map([0.2, 0.4], [5], 50)


class TestExactAlign:
    def test_peaks_already_at_landmarks(self):
        L = 50
        B = 500
        nu = LandmarkGrid(L).nu
        t = np.arange(1, B + 1) / B
        sig = [10, 22, 40]
        lane = gaussian_lane(t, nu[sig])
        grid = IntensityGrid((GelTrace("G1", (Lane(1, lane),)),), B)
        # apexes sit on grid points equal to the landmarks only if nu is
        # on the bin grid; B = 500 and L = 50 do not nest, so detect first
        peaks = detect_peaks(grid, PeakConfig(h=8, c0=0.05))
        z = {("G1", 1): np.array(sig)}
        out = exact_align(grid, peaks, z, L)
        # peaks were already within half a bin of their landmarks, so the
        # trace moves by less than one bin
        assert np.abs(out.gel("G1").lane(1).intensity - lane).max() < np.ptp(lane)
        peaks2 = detect_peaks(out, PeakConfig(h=8, c0=0.05))
        locs = np.array([p.location for p in peaks2.lane_peaks("G1", 1)])
        np.testing.assert_allclose(locs, nu[sig], atol=1.0 / B + 1e-12)

    def test_single_peak_relocates(self):
        B = 1000
        t = np.arange(1, B + 1) / B
        lane = gaussian_lane(t, [0.43])
        grid = IntensityGrid((GelTrace("G1", (Lane(1, lane),)),), B)
        peaks = detect_peaks(grid, PeakConfig(h=10, c0=0.05))
        L = 19  # landmarks at k/20: landmark 9 sits at 0.45
        z = {("G1", 1): np.array([9])}
        out = exact_align(grid, peaks, z, L)
        apex = t[int(np.argmax(out.gel("G1").lane(1).intensity))]
        assert apex == pytest.approx(0.45, abs=1.0 / B + 1e-12)

    def test_reference_and_unassigned_pass_through(self):
        B = 400
        t = np.arange(1, B + 1) / B
        ref = gaussian_lane(t, [0.2, 0.8])
        sample = gaussian_lane(t, [0.5])
        other = gaussian_lane(t, [0.3])
        grid = IntensityGrid(
            (
                GelTrace(
                    "G1",
                    (Lane(1, ref, is_reference=True), Lane(2, sample), Lane(3, other)),
                ),
            ),
            B,
        )
        peaks = detect_peaks(grid, PeakConfig(h=8, c0=0.05))
        z = {("G1", 2): np.array([25])}
        out = exact_align(grid, peaks, z, 50)
        np.testing.assert_array_equal(out.gel("G1").lane(1).intensity, ref)
        np.testing.assert_array_equal(out.gel("G1").lane(3).intensity, other)
        assert not np.array_equal(out.gel("G1").lane(2).intensity, sample)

    def test_unmappable_lane_named(self):
        # lane_map's own message follows the gel and lane
        B = 400
        t = np.arange(1, B + 1) / B
        lanes = (Lane(1, gaussian_lane(t, [0.5])), Lane(2, gaussian_lane(t, [0.3, 0.7])))
        grid = IntensityGrid((GelTrace("G1", lanes),), B)
        peaks = detect_peaks(grid, PeakConfig(h=8, c0=0.05))
        for z, message in (
                ([5, 5], "gel G1 lane 2: assignment (5, 5) cannot be made strictly "
                         "increasing within 1..5"),
                ([2], "gel G1 lane 2: 2 peaks but 1 assignments")):
            with pytest.raises(ValueError, match=re.escape(message)):
                exact_align(grid, peaks, {("G1", 1): np.array([3]), ("G1", 2): np.array(z)}, 5)

    def test_cross_lane_apex_spread_collapses(self):
        # all lanes share one signature; noise scatters the apexes, exact
        # alignment puts every lane's apex on the same bins
        L = 50
        spec = SimSpec(
            n_gels=1,
            lanes_per_gel=6,
            B=500,
            L=L,
            signatures=((15, 35),),
            n_replicates=6,
            sigma_eps=0.35 / (L + 1),
        )
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(5))
        sgrid = standardize_intensities(grid)
        peaks = detect_peaks(sgrid, PeakConfig(h=8, c0=0.05))
        z = {}
        for gel in sgrid.gels:
            for lane in gel.sample_lanes():
                locs = [p.location for p in peaks.lane_peaks(gel.gel_id, lane.index)]
                z[(gel.gel_id, lane.index)] = true_assignments(
                    truth, gel.gel_id, lane.index, locs
                )
        out = exact_align(sgrid, peaks, z, L)
        peaks2 = detect_peaks(out, PeakConfig(h=8, c0=0.05))
        locs_by_j = {}
        for gel in out.gels:
            for lane in gel.sample_lanes():
                for p in peaks2.lane_peaks(gel.gel_id, lane.index):
                    locs_by_j.setdefault(p.j, []).append(p.location)
        for j, locs in locs_by_j.items():
            assert np.std(locs) < 1.0 / out.B


class TestInvertWarp:
    def test_inverts_on_grid(self):
        nu = np.linspace(0, 1, 400)
        s = nu + 0.03 * np.sin(2 * np.pi * nu)
        x = np.array([0.1, 0.43, 0.77])
        np.testing.assert_allclose(np.interp(invert_warp(nu, s, x), nu, s), x, atol=1e-9)

    def test_requires_increasing(self):
        nu = np.linspace(0, 1, 10)
        s = np.zeros(10)
        with pytest.raises(ValueError, match="increasing"):
            invert_warp(nu, s, 0.5)

    def test_noise_keeps_inverse_off_landmarks(self):
        # smooth dewarping undoes the warp but not the measurement noise:
        # inverse-mapped noisy locations still scatter around the landmark
        rng = np.random.default_rng(0)
        L = 50
        nu_fine = np.linspace(0, 1, 2000)
        warp = nu_fine + 0.03 * np.sin(2 * np.pi * nu_fine)
        grid = LandmarkGrid(L)
        sigma = 0.2 / (L + 1)
        z = rng.integers(1, L + 1, size=1000)
        T = np.interp(grid.nu[z], nu_fine, warp) + rng.normal(0, sigma, size=1000)
        back = invert_warp(nu_fine, warp, T)
        err = np.abs(back - grid.nu[z])
        assert err.mean() > 0.5 * sigma

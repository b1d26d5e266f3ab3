import numpy as np
import pytest

from gelwarp.core import LandmarkGrid, standardize_intensities
from gelwarp.peakdetect import PeakConfig, detect_peaks
from gelwarp.simulate import (
    SimSpec,
    actin_landmark,
    random_signatures,
    read_truth,
    reference_locations,
    simulate_gels,
    true_assignments,
    true_warp_values,
    write_truth,
)


def detect(grid, h=8, c0=0.05):
    return detect_peaks(standardize_intensities(grid), PeakConfig(h=h, c0=c0))


class TestHelpers:
    def test_reference_locations_ordered(self):
        locs = reference_locations()
        assert locs.size == 7
        assert np.all(np.diff(locs) > 0)
        assert locs.min() > 0 and locs.max() < 1

    def test_actin_landmark(self):
        # universal band sits at 43% of the grid span
        assert actin_landmark(100) == round(0.43 * 101)
        assert actin_landmark(50) == 22

    def test_random_signatures_separation(self):
        rng = np.random.default_rng(0)
        sigs = random_signatures(4, 3, 50, rng, min_sep=3, exclude=(22,))
        assert len(sigs) == 4
        assert len(set(sigs)) == 4
        for sig in sigs:
            assert all(b - a >= 3 for a, b in zip(sig, sig[1:]))
            assert all(abs(ell - 22) >= 3 for ell in sig)

    def test_random_signatures_infeasible(self):
        rng = np.random.default_rng(2)
        # (1, 4, 7) is the only 3-band signature on 7 landmarks at min_sep 3
        with pytest.raises(ValueError, match="could not draw 2 distinct"):
            random_signatures(2, 3, 7, rng, min_sep=3)


def small_spec(**kw):
    defaults = dict(
        n_gels=2,
        lanes_per_gel=3,
        B=500,
        L=50,
        signatures=((5, 20, 35), (10, 28, 44)),
        n_replicates=3,
    )
    defaults.update(kw)
    return SimSpec(**defaults)


class TestSpecFromDict:
    BASE = {"n_gels": 2, "lanes_per_gel": 2, "B": 200, "L": 20}

    def test_lists_become_tuples_of_ints(self):
        spec = SimSpec.from_dict(dict(self.BASE, signatures=[[3.0, 9], [5, 14]],
                                      exposure_scales=[1.0, 0.5]))
        assert spec.signatures == ((3, 9), (5, 14))
        assert all(type(b) is int for s in spec.signatures for b in s)
        assert spec.exposure_scales == (1.0, 0.5)

    def test_random_recipe_missing_key_named(self):
        recipe = {"random": {"n_bands": 3}}
        with pytest.raises(ValueError, match="random signatures need the key 'n_clusters'"):
            SimSpec.from_dict(dict(self.BASE, signatures=recipe), np.random.default_rng(0))
        recipe = {"random": {"n_clusters": 2, "n_bands": 3}}
        no_L = {k: v for k, v in self.BASE.items() if k != "L"}
        with pytest.raises(ValueError, match="random signatures need the key 'L'"):
            SimSpec.from_dict(dict(no_L, signatures=recipe), np.random.default_rng(0))

    def test_unknown_keys_named(self):
        with pytest.raises(ValueError, match="unknown simulator settings: bands, lanes"):
            SimSpec.from_dict(dict(self.BASE, bands=3, lanes=2))


class TestSimulateGels:
    def test_zero_warp_zero_noise_peaks_on_grid(self):
        spec = small_spec(sigma_eps=0.0, warp_amplitude=0.0, noise_sd=0.0)
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(0))
        nu = LandmarkGrid(spec.L).nu
        peaks = detect(grid)
        for gel in grid.gels:
            for lane in gel.sample_lanes():
                sig = truth["lanes"][gel.gel_id][str(lane.index)]["landmarks"]
                locs = [p.location for p in peaks.lane_peaks(gel.gel_id, lane.index)]
                assert len(locs) == len(sig)
                np.testing.assert_allclose(locs, nu[sig], atol=1.0 / spec.B + 1e-12)

    def test_actin_band_in_every_lane(self):
        spec = small_spec(sigma_eps=0.0, warp_amplitude=0.0, noise_sd=0.0)
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(0))
        actin = truth["actin_landmark"]
        for gel in grid.gels:
            for lane in gel.sample_lanes():
                sig = truth["lanes"][gel.gel_id][str(lane.index)]["landmarks"]
                assert actin in sig

    def test_warped_actin_traces_the_curve(self):
        spec = small_spec(warp_amplitude=2.0 / 51, sigma_eps=0.0, noise_sd=0.0)
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(4))
        peaks = detect(grid)
        actin = truth["actin_landmark"]
        for gel in grid.gels:
            tw = true_warp_values(truth, gel.gel_id)
            lanes = truth["warps"][gel.gel_id]["lanes"]
            for col, lane_idx in enumerate(lanes):
                expected = tw[actin, col]
                locs = np.array(
                    [p.location for p in peaks.lane_peaks(gel.gel_id, lane_idx)]
                )
                # nearest detected peak is the universal band
                assert np.abs(locs - expected).min() <= 1.0 / spec.B + 1e-12

    def test_partition_layout(self):
        spec = SimSpec(
            n_gels=4,
            lanes_per_gel=10,
            B=300,
            L=50,
            signatures=tuple((1 + i, 26 + i) for i in range(20)),
            n_replicates=2,
        )
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(0))
        labels = truth["partition_labels"]
        assert len(labels) == 40
        counts = {c: labels.count(c) for c in set(labels)}
        assert counts == {c: 2 for c in range(1, 21)}

    def test_replicates_share_signature_but_not_exposure(self):
        spec = small_spec()
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(0))
        by_cluster: dict[int, list] = {}
        for key, s in truth["samples"].items():
            by_cluster.setdefault(s["cluster"], []).append((key, s["exposure"]))
        for cluster, members in by_cluster.items():
            gels = {key.split(":")[0] for key, _ in members}
            assert len(gels) > 1
            exposures = {e for _, e in members}
            assert len(exposures) > 1

    def test_monotonicity_guard(self):
        with pytest.raises(ValueError, match="monotonicity"):
            small_spec(warp_amplitude=0.2)

    def test_deterministic_in_seed(self):
        spec = small_spec(sigma_eps=0.001, warp_amplitude=0.01)
        g1, m1, t1 = simulate_gels(spec, np.random.default_rng(42))
        g2, m2, t2 = simulate_gels(spec, np.random.default_rng(42))
        np.testing.assert_array_equal(g1.matrix(), g2.matrix())
        assert t1 == t2

    def test_truth_io_round_trip(self, tmp_path):
        spec = small_spec(sigma_eps=0.001, warp_amplitude=0.01)
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(1))
        write_truth(truth, tmp_path / "truth.json")
        back = read_truth(tmp_path / "truth.json")
        assert back["L"] == truth["L"]
        assert back["partition_labels"] == truth["partition_labels"]
        np.testing.assert_allclose(
            true_warp_values(back, "g1"), true_warp_values(truth, "g1")
        )

    def test_true_assignments_match_landmarks(self):
        spec = small_spec(sigma_eps=0.1 / 51, warp_amplitude=1.0 / 51)
        grid, manifest, truth = simulate_gels(spec, np.random.default_rng(7))
        peaks = detect(grid)
        for gel in grid.gels:
            for lane in gel.sample_lanes():
                locs = [p.location for p in peaks.lane_peaks(gel.gel_id, lane.index)]
                z = true_assignments(truth, gel.gel_id, lane.index, locs)
                sig = truth["lanes"][gel.gel_id][str(lane.index)]["landmarks"]
                assert z.tolist() == sig

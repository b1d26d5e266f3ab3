import math
import re

import numpy as np
import pytest

import gelwarp.cluster
from gelwarp.cluster import (
    DistanceMatrix,
    adjusted_rand,
    adjusted_rand_rows,
    average_silhouette,
    bootstrap_confidence,
    check_n_values,
    cut,
    cut_rows,
    distance_matrix,
    hclust_complete,
    partition_scores,
    posterior_clustering_summary,
    quality_rows,
    to_newick,
)
from gelwarp.core import GelTrace, IntensityGrid, Lane
from gelwarp.exactalign import exact_align
from gelwarp.peakdetect import Peak, PeakTable
from gelwarp.simulate import SimSpec, simulate_gels


# -- independent oracles ----------------------------------------------------


def oracle_complete_linkage(D):
    """Merge by the definition: smallest maximum cross-pair distance."""
    n = D.shape[0]
    members = {i: frozenset([i]) for i in range(n)}
    merges = []
    nxt = n
    while len(members) > 1:
        best = None
        ids = sorted(members)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                d = max(D[p, q] for p in members[a] for q in members[b])
                if best is None or d < best[0] or (d == best[0] and (a, b) < (best[1], best[2])):
                    best = (d, a, b)
        d, a, b = best
        members[nxt] = members[a] | members[b]
        del members[a], members[b]
        merges.append((a, b, d))
        nxt += 1
    return merges


def oracle_silhouette(D, labels):
    n = len(labels)
    total = 0.0
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            continue
        a = sum(D[i, j] for j in same) / len(same)
        b = math.inf
        for c in set(labels):
            if c == labels[i]:
                continue
            other = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(D[i, j] for j in other) / len(other))
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / n


def oracle_adjusted_rand(a, b):
    """Pair-counting route, no contingency table."""
    n = len(a)
    same_both = same_a = same_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            ia = a[i] == a[j]
            ib = b[i] == b[j]
            same_a += ia
            same_b += ib
            same_both += ia and ib
    total = n * (n - 1) // 2
    expected = same_a * same_b / total
    maximum = 0.5 * (same_a + same_b)
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def oracle_cut(dend, n):
    """Union-find over the first N - n merges; clusters numbered by their
    smallest member."""
    N = dend.n_leaves
    parent = list(range(2 * N - 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k, (a, b, _h) in enumerate(dend.merges[:N - n]):
        parent[find(a)] = parent[find(b)] = N + k
    roots = [find(i) for i in range(N)]
    order = sorted(set(roots), key=roots.index)
    return np.array([order.index(r) + 1 for r in roots])


def contingency_adjusted_rand(a, b):
    """One partition pair at a time: np.unique codes, a dense contingency
    table and exact integer pair counts."""
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    ai, bi = ai.reshape(-1), bi.reshape(-1)
    kb = int(bi.max()) + 1
    table = np.bincount(ai * kb + bi, minlength=(int(ai.max()) + 1) * kb).reshape(-1, kb)
    idx, ra, cb = (int((v * (v - 1) // 2).sum())
                   for v in (table, table.sum(axis=1), table.sum(axis=0)))
    pairs = math.comb(ai.size, 2)
    expected = ra * cb / pairs
    maximum = 0.5 * (ra + cb)
    if abs(maximum - expected) < 1e-12:
        return 1.0
    return float((idx - expected) / (maximum - expected))


def random_distance(rng, n):
    X = rng.random((n, 3))
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    return D


def newick_paths(text):
    """Each leaf name of a Newick tree whose leaves are quoted, with the
    branch lengths from that leaf up to the root."""
    tokens = re.findall(r"'(?:[^']|'')*'|[(),:;]|[^(),:;']+", text)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def node():
        tok = take()
        if tok != "(":
            assert tok[0] == tok[-1] == "'", tok
            return {tok[1:-1].replace("''", "'"): []}
        paths = {}
        while True:
            sub = node()
            assert take() == ":"
            length = float(take())
            paths.update((name, [*p, length]) for name, p in sub.items())
            if take() == ")":
                return paths

    paths = node()
    assert tokens[pos:] == [";"]
    return paths


def dm(D):
    keys = tuple(("G1", i + 1) for i in range(D.shape[0]))
    return DistanceMatrix(keys, np.clip(D, 0.0, 2.0))


# -- distance matrix --------------------------------------------------------


class TestDistanceMatrix:
    def grid(self, rows):
        lanes = tuple(Lane(i + 1, np.asarray(r, float)) for i, r in enumerate(rows))
        return IntensityGrid((GelTrace("G1", lanes),), len(rows[0]))

    def test_self_distance_zero(self):
        g = self.grid([[0.0, -1.0, 2.0, 0.5], [1.0, 0.2, 0.1, 0.9]])
        D = distance_matrix(g)
        assert D.values[0, 0] == 0.0 and D.values[1, 1] == 0.0

    def test_affine_copy_distance_zero(self):
        base = [0.1, 0.9, 0.4, 0.7, 0.2]
        g = self.grid([base, [3 * v + 1 for v in base]])
        D = distance_matrix(g)
        assert D.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_distance_two(self):
        base = np.array([0.1, 0.9, 0.4, 0.7, 0.2])
        g = self.grid([base, (-base + 1.0)])
        D = distance_matrix(g)
        assert D.values[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_constant_lane_named(self):
        g = self.grid([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
        with pytest.raises(ValueError, match="lane 2"):
            distance_matrix(g)

    def test_symmetry_validated(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix((("G1", 1), ("G1", 2)), np.array([[0.0, 0.5], [0.4, 0.0]]))


# -- linkage ----------------------------------------------------------------


class TestCompleteLinkage:
    def test_two_blocks(self):
        rng = np.random.default_rng(0)
        D = np.ones((6, 6))
        for i in range(6):
            D[i, i] = 0.0
        for block in ([0, 1, 2], [3, 4, 5]):
            for i in block:
                for j in block:
                    if i != j:
                        D[i, j] = 0.1
        dend = hclust_complete(dm(D))
        labels = cut(dend, 2)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        cases = [random_distance(rng, int(rng.integers(3, 13))) for _ in range(60)]
        cases += [random_distance(rng, int(rng.integers(20, 41))) for _ in range(10)]
        # distances on a grid of quarters tie exactly, so the lowest (id, id)
        # rule decides most merges
        cases += [np.round(random_distance(rng, int(rng.integers(3, 25))) * 4) / 4
                  for _ in range(40)]
        for D in cases:
            got = hclust_complete(dm(D)).merges
            want = oracle_complete_linkage(D)
            assert len(got) == len(want)
            for (a, b, h), (a2, b2, h2) in zip(got, want):
                assert (a, b) == (a2, b2)
                assert h == pytest.approx(h2, abs=1e-12)

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            D = random_distance(rng, int(rng.integers(3, 12)))
            heights = [h for _, _, h in hclust_complete(dm(D)).merges]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_cut_extremes(self):
        D = random_distance(np.random.default_rng(1), 7)
        dend = hclust_complete(dm(D))
        assert cut(dend, 7).tolist() == [1, 2, 3, 4, 5, 6, 7]
        assert np.array_equal(cut(dend, 1), np.ones(7, dtype=int))

    def test_cut_labels_contiguous(self):
        rng = np.random.default_rng(3)
        D = random_distance(rng, 9)
        dend = hclust_complete(dm(D))
        for n in range(1, 10):
            labels = cut(dend, n)
            assert sorted(set(labels.tolist())) == list(range(1, n + 1))

    def test_cut_out_of_range(self):
        D = random_distance(np.random.default_rng(1), 4)
        dend = hclust_complete(dm(D))
        with pytest.raises(ValueError):
            cut(dend, 5)

    def test_cut_rows_match_oracle_at_every_n(self):
        rng = np.random.default_rng(11)
        cases = [random_distance(rng, int(rng.integers(2, 61))) for _ in range(20)]
        cases += [np.round(random_distance(rng, int(rng.integers(2, 61))) * 4) / 4
                  for _ in range(20)]
        for D in cases:
            dend = hclust_complete(dm(D))
            N = dend.n_leaves
            rows = cut_rows(dend, range(1, N + 1))
            assert rows.shape == (N, N)
            for n, row in zip(range(1, N + 1), rows):
                want = oracle_cut(dend, n)
                assert np.array_equal(row, want)
                assert np.array_equal(cut(dend, n), want)

    def test_cut_rows_any_order_and_repeats(self):
        dend = hclust_complete(dm(random_distance(np.random.default_rng(4), 12)))
        n_values = [7, 2, 12, 7, 1]
        rows = cut_rows(dend, n_values)
        for n, row in zip(n_values, rows):
            assert np.array_equal(row, oracle_cut(dend, n))
        assert cut_rows(dend, []).shape == (0, 12)
        with pytest.raises(ValueError, match="cannot cut 12 leaves into 13"):
            cut_rows(dend, [3, 13])

    def test_newick_contains_all_leaves(self):
        D = random_distance(np.random.default_rng(5), 5)
        dend = hclust_complete(dm(D))
        s = to_newick(dend)
        assert s.endswith(";")
        for i in range(1, 6):
            assert f"G1:{i}" in s

    def test_newick_names_read_back(self):
        keys = (("gél1", 3), ("a,b", 1), ("q't", 2))
        D = np.array([[0.0, 0.2, 0.5], [0.2, 0.0, 0.4], [0.5, 0.4, 0.0]])
        paths = newick_paths(to_newick(hclust_complete(DistanceMatrix(keys, D))))
        want = {"gél1:3": [0.2, 0.3], "a,b:1": [0.2, 0.3], "q't:2": [0.5]}
        assert sorted(paths) == sorted(want)
        for name, lengths in want.items():
            assert paths[name] == pytest.approx(lengths)


# -- adjusted Rand ----------------------------------------------------------


class TestAdjustedRand:
    def test_identical_partitions(self):
        labels = [1, 1, 2, 2, 3]
        assert adjusted_rand(labels, labels) == 1.0

    def test_hand_case_minus_half(self):
        # pairs {1,2},{3,4} against {1,3},{2,4}
        assert adjusted_rand([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)

    def test_label_permutation_invariant(self):
        a = [1, 1, 2, 2, 3, 3]
        b = [3, 3, 1, 1, 2, 2]
        assert adjusted_rand(a, b) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.integers(1, 4, size=12)
            b = rng.integers(1, 4, size=12)
            assert adjusted_rand(a, b) == pytest.approx(adjusted_rand(b, a), abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(9)
        for k in range(600):
            n = int(rng.integers(3, 11)) if k < 300 else int(rng.integers(2, 61))
            a = rng.integers(1, 5, size=n)
            b = rng.integers(1, 5, size=n)
            # the pair counts are exact integers, so the two routes agree exactly
            assert adjusted_rand(a, b) == oracle_adjusted_rand(a.tolist(), b.tolist())

    def test_rows_equal_single_pair_route(self):
        rng = np.random.default_rng(21)
        for k in range(60):
            N = int(rng.integers(2, 61))
            truth = rng.integers(1, int(rng.integers(2, 8)), size=N)
            if k < 30:
                D = random_distance(rng, N)
                if k % 2:
                    D = np.round(D * 4) / 4
                A = cut_rows(hclust_complete(dm(D)), range(1, N + 1))
            else:
                A = rng.integers(0, int(rng.integers(1, 9)), size=(int(rng.integers(1, 9)), N))
            got = adjusted_rand_rows(A, truth)
            assert len(got) == len(A)
            for row, value in zip(A, got):
                # the same exact pair counts and the same float steps: ==
                assert value == contingency_adjusted_rand(row, truth)
                assert adjusted_rand(row, truth) == value

    def test_rows_any_label_values(self):
        A = np.array([["x", "x", "y", "y"], ["p", "q", "p", "q"]])
        assert adjusted_rand_rows(A, np.array([5, 5, 9, 9])) == pytest.approx([1.0, -0.5])
        assert adjusted_rand_rows(np.zeros((0, 4), dtype=int), np.arange(4)) == []
        with pytest.raises(ValueError):
            adjusted_rand_rows(A, np.arange(3))

    def test_random_partitions_mean_zero(self):
        rng = np.random.default_rng(123)
        vals = []
        for _ in range(10_000):
            a = rng.integers(1, 4, size=12)
            b = rng.integers(1, 4, size=12)
            vals.append(adjusted_rand(a, b))
        assert abs(float(np.mean(vals))) < 0.01

    def test_mismatched_length(self):
        with pytest.raises(ValueError):
            adjusted_rand([1, 2], [1, 2, 3])


# -- silhouette -------------------------------------------------------------


class TestSilhouette:
    def test_two_tight_far_blocks(self):
        eps = 1e-4
        D = np.full((4, 4), 1.0)
        np.fill_diagonal(D, 0.0)
        D[0, 1] = D[1, 0] = eps
        D[2, 3] = D[3, 2] = eps
        s = average_silhouette(dm(D), [1, 1, 2, 2])
        assert s == pytest.approx(1.0, abs=2 * eps)

    def test_uniform_distances_score_zero(self):
        D = np.ones((6, 6)) - np.eye(6)
        s = average_silhouette(dm(D), [1, 1, 1, 2, 2, 2])
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_all_singletons_zero(self):
        D = random_distance(np.random.default_rng(2), 5)
        s = average_silhouette(dm(D), [1, 2, 3, 4, 5])
        assert s == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        for k in range(500):
            if k < 200:
                n, n_labels = int(rng.integers(4, 9)), 3
            else:
                n, n_labels = int(rng.integers(2, 41)), int(rng.integers(2, 9))
            D = random_distance(rng, n)
            labels = rng.integers(1, n_labels + 1, size=n)
            if len(set(labels.tolist())) < 2:
                continue
            # sums run in index order, as in the oracle, so equality is exact
            assert average_silhouette(dm(D), labels) == oracle_silhouette(D, labels.tolist())


# -- bootstrap --------------------------------------------------------------


def block_grid(seed=0, strong=True, lanes=8, B=300):
    rng = np.random.default_rng(seed)
    t = np.arange(1, B + 1) / B
    rows = []
    for i in range(lanes):
        lane = rng.normal(0, 0.02, size=B)
        if strong:
            centers = (0.2, 0.4) if i < lanes // 2 else (0.6, 0.8)
            for c in centers:
                lane += np.exp(-0.5 * ((t - c) / 0.01) ** 2)
        rows.append(Lane(i + 1, lane))
    return IntensityGrid((GelTrace("G1", tuple(rows)),), B)


class TestBootstrap:
    def test_identity_resample_gives_ones(self):
        grid = block_grid()

        class IdentityRng:
            def integers(self, lo, hi, size):
                return np.arange(size)

        conf = bootstrap_confidence(grid, 1, IdentityRng())
        assert conf and all(c == 1.0 for c in conf.values())

    def test_strong_blocks_high_confidence(self):
        grid = block_grid(strong=True)
        conf = bootstrap_confidence(grid, 200, np.random.default_rng(0))
        blocks = [
            tuple(("G1", i) for i in (1, 2, 3, 4)),
            tuple(("G1", i) for i in (5, 6, 7, 8)),
        ]
        for block in blocks:
            assert conf.get(block, 0.0) >= 0.95

    def test_noise_gives_low_confidence(self):
        grid = block_grid(strong=False)
        conf = bootstrap_confidence(grid, 200, np.random.default_rng(0))
        big = {k: c for k, c in conf.items() if len(k) >= 4}
        assert big
        assert max(big.values()) < 0.5

    def test_confidence_invariant_to_leaf_relabeling(self):
        grid = block_grid(strong=True)
        conf1 = bootstrap_confidence(grid, 50, np.random.default_rng(1))
        # same gel, lanes renumbered in reverse
        rev = IntensityGrid(
            (
                GelTrace(
                    "G1",
                    tuple(
                        Lane(9 - ln.index, ln.intensity)
                        for ln in reversed(grid.gels[0].lanes)
                    ),
                ),
            ),
            grid.B,
        )
        conf2 = bootstrap_confidence(rev, 50, np.random.default_rng(1))
        remap = {i: 9 - i for i in range(1, 9)}
        conf2_named = {
            tuple(sorted(("G1", remap[l]) for _, l in k)): v for k, v in conf2.items()
        }
        assert set(conf1) == set(conf2_named)
        for k in conf1:
            assert conf1[k] == pytest.approx(conf2_named[k], abs=0.15)


class TestPosteriorSummarySettings:
    @pytest.mark.parametrize("n_values, bad", [([1, 2], "1"), ([2, 9], "9"), ([2.5], r"2\.5")])
    def test_n_values_outside_range_rejected(self, n_values, bad):
        grid = block_grid(strong=True)
        z_draws = {("G1", 1): np.ones((2, 1), dtype=int)}
        with pytest.raises(ValueError, match=rf"n_values: {bad} is not an integer in 2\.\.8"):
            posterior_clustering_summary(grid, PeakTable((), grid.B), z_draws, 5,
                                         n_values=n_values)

    @pytest.mark.parametrize("N", [None, 8])
    def test_repeated_n_rejected(self, N):
        # a repeated n would enter that n's means and percentiles twice
        with pytest.raises(ValueError, match=r"cluster.n_values: 5 is listed more than once"):
            check_n_values([3, 5, 2, 5], N)

    def test_repeated_n_rejected_by_summary(self):
        grid, peaks = draw_setup()
        z_draws = repeated_draws(np.random.default_rng(3), 6, 2)
        with pytest.raises(ValueError, match=r"n_values: 3 is listed more than once"):
            posterior_clustering_summary(grid, peaks, z_draws, L_TEST, n_values=[3, 3, 5])

    @pytest.mark.parametrize("truth", [None, np.array([1, 1, 1, 1, 2, 2, 2, 2])])
    def test_one_row_is_a_single_cut(self, truth):
        D = distance_matrix(block_grid(strong=False))
        dend = hclust_complete(D)
        n_values = [4, 2, 8]
        sil, ari = partition_scores(D, dend, n_values, truth)
        want = [{"n": n, "silhouette": s} for n, s in zip(n_values, sil)]
        if truth is not None:
            for row, a in zip(want, ari):
                row.update(ari_mean=a, ari_lo=a, ari_hi=a)
        rows = quality_rows(n_values, np.array([sil]), None if ari is None else np.array([ari]))
        assert rows == want


# -- posterior summary: identical draws scored once ------------------------

L_TEST = 10
# each lane's peaks sit near its block's two band centers
PEAK_BINS = {"low": (60, 120), "high": (180, 240)}
Z_LOW = [(2, 4), (2, 5), (3, 4)]
Z_HIGH = [(7, 9), (6, 9), (7, 8)]


def draw_setup(seed=0):
    grid = block_grid(seed=seed, strong=True)
    entries = []
    for lane in grid.gels[0].lanes:
        bins = PEAK_BINS["low" if lane.index <= 4 else "high"]
        for j, b in enumerate(bins, start=1):
            entries.append(Peak("G1", lane.index, j, b, b / grid.B, 1.0))
    return grid, PeakTable(tuple(entries), grid.B)


def repeated_draws(rng, K, distinct):
    """K draws cycling through `distinct` random full assignments, in
    runs, as a slowly mixing chain repeats itself."""
    states = [
        {("G1", i): (Z_LOW if i <= 4 else Z_HIGH)[int(rng.integers(3))]
         for i in range(1, 9)}
        for _ in range(distinct)
    ]
    seq = np.repeat(rng.integers(0, distinct, size=K // 3 + 1), 3)[:K]
    return {key: np.array([states[s][key] for s in seq]) for key in states[0]}


def reference_summary(grid, peaks, z_draws, L, truth=None, n_values=None, thin=1):
    """Every draw aligned and scored from scratch, one n at a time."""
    keys = list(z_draws)
    K = len(z_draws[keys[0]])
    N = len(grid.lane_keys(include_reference=False))
    n_values = list(range(2, N + 1)) if n_values is None else list(n_values)
    ari = {n: [] for n in n_values}
    sil = {n: [] for n in n_values}
    for k in range(0, K, thin):
        Dk = distance_matrix(exact_align(grid, peaks, {key: z_draws[key][k] for key in keys}, L))
        dend = hclust_complete(Dk)
        for n in n_values:
            labels = oracle_cut(dend, n)
            if truth is not None:
                ari[n].append(contingency_adjusted_rand(labels, truth))
            sil[n].append(average_silhouette(Dk, labels))
    rows = []
    for n in n_values:
        row = {"n": n, "silhouette": float(np.mean(sil[n]))}
        if truth is not None:
            vals = np.asarray(ari[n])
            row.update(ari_mean=float(vals.mean()),
                       ari_lo=float(np.percentile(vals, 2.5)),
                       ari_hi=float(np.percentile(vals, 97.5)))
        rows.append(row)
    return rows


class TestPosteriorDrawCache:
    TRUTH = np.array([1, 1, 2, 2, 3, 3, 3, 3])

    @pytest.mark.parametrize("truth, n_values, thin", [
        (None, None, 1),
        (TRUTH, None, 1),
        (TRUTH, None, 4),
        (TRUTH, [5, 3, 8], 3),
        (None, [2, 7], 2),
    ])
    def test_equals_scoring_every_draw(self, truth, n_values, thin):
        grid, peaks = draw_setup()
        z_draws = repeated_draws(np.random.default_rng(3), 40, 5)
        got = posterior_clustering_summary(grid, peaks, z_draws, L_TEST, truth=truth,
                                           n_values=n_values, thin=thin)
        want = reference_summary(grid, peaks, z_draws, L_TEST, truth=truth,
                                 n_values=n_values, thin=thin)
        assert got == want

    def test_lanes_missing_from_draws_pass_through(self):
        grid, peaks = draw_setup()
        z_draws = repeated_draws(np.random.default_rng(8), 12, 3)
        del z_draws[("G1", 2)], z_draws[("G1", 7)]
        assert (posterior_clustering_summary(grid, peaks, z_draws, L_TEST, truth=self.TRUTH)
                == reference_summary(grid, peaks, z_draws, L_TEST, truth=self.TRUTH))

    def test_align_once_per_distinct_draw_and_changed_lane(self, monkeypatch):
        grid, peaks = draw_setup()
        calls = []

        def counting(grid, peaks, z, L):
            calls.append(sorted(z))
            return exact_align(grid, peaks, z, L)

        monkeypatch.setattr(gelwarp.cluster, "exact_align", counting)
        base = {("G1", i): (Z_LOW if i <= 4 else Z_HIGH)[0] for i in range(1, 9)}
        moved = {**base, ("G1", 6): Z_HIGH[1]}
        # draws: base, base, moved, base, moved, moved
        seq = [base, base, moved, base, moved, moved]
        z_draws = {key: np.array([d[key] for d in seq]) for key in base}
        posterior_clustering_summary(grid, peaks, z_draws, L_TEST, truth=self.TRUTH)
        # two distinct draws: every lane once, then only the lane that moved
        assert calls == [sorted(base), [("G1", 6)]]

    @pytest.mark.parametrize("thin", [0, -2, 1.5, "2"])
    def test_bad_thin_rejected(self, thin):
        grid, peaks = draw_setup()
        z_draws = repeated_draws(np.random.default_rng(1), 4, 2)
        with pytest.raises(ValueError, match=r"draw_thin must be an integer >= 1, got "):
            posterior_clustering_summary(grid, peaks, z_draws, L_TEST, thin=thin)

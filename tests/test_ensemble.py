"""Ensemble runner: batching, reduction order, and scan structure."""

import tracemalloc

import numpy as np
import pytest

from pdqw import (
    DisorderSpec,
    DomainError,
    crw_reference,
    evolve,
    generate_phase_map,
    hadamard_coin,
    position_distribution,
    run_ensemble,
    run_ensembles,
    run_pair_ensembles,
    similarity,
    similarity_scan,
    variance,
)
import pdqw.ensemble
from pdqw.analysis import Distribution
from pdqw.ensemble import _similarities, chunk_maps, mean_and_std

COIN = hadamard_coin()


def per_map_variances(spec, n_maps):
    return per_map_walks(spec, n_maps)[0]


def per_map_walks(spec, n_maps):
    """Each map's variance and distribution after every step, walked map
    by map with evolve on the lattice of half-width steps."""
    variances, dists = [], []
    for k in range(n_maps):
        pm = generate_phase_map(spec, k)
        states = [position_distribution(s) for s in evolve(spec.steps, COIN, pm, spec.steps)]
        variances.append([variance(d) for d in states])
        dists.append([d.probabilities for d in states])
    return np.asarray(variances), np.asarray(dists)


class TestRunner:
    def test_single_map_matches_evolve(self):
        spec = DisorderSpec(p=0.8, steps=6, master_seed=31)
        res = run_ensemble(spec, COIN, 1)
        np.testing.assert_array_equal(res.mean_variance, per_map_variances(spec, 1)[0])
        np.testing.assert_array_equal(res.std_variance, np.zeros(6))

    @pytest.mark.parametrize("n_maps", [12, chunk_maps(5) + 3])
    def test_mean_and_std_match_a_python_loop(self, n_maps):
        # chunk_maps(5) + 3 maps span two chunks: the second must sample
        # maps chunk_maps(5).., and reduction must stay in index order.
        spec = DisorderSpec(p=0.5, steps=5, master_seed=7)
        res = run_ensemble(spec, COIN, n_maps)
        manual = per_map_variances(spec, n_maps)
        np.testing.assert_allclose(res.mean_variance, manual.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(res.std_variance, manual.std(axis=0, ddof=1), atol=1e-12)

    def test_steps_20_match_a_python_loop(self):
        # Windows of 8 sites or more, where the per-map sums' left-to-right
        # order differs from numpy's pairwise one, over two chunks.
        spec = DisorderSpec(p=0.3, steps=20, master_seed=7)
        n_maps = chunk_maps(20) + 3
        res = run_ensemble(spec, COIN, n_maps)
        variances, dists = per_map_walks(spec, n_maps)
        np.testing.assert_allclose(res.mean_variance, variances.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.std_variance, variances.std(axis=0, ddof=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.mean_probabilities, dists.mean(axis=0), rtol=0, atol=1e-12)

    def test_a_one_map_walk_rounds_as_a_wide_one(self):
        # One map alone is a walk of one row, whose site sums numpy would
        # take pairwise; next to another p it is a row of a wider walk.
        spec = DisorderSpec(p=0.4, steps=20, master_seed=3)
        alone = run_ensemble(spec, COIN, 1)
        paired = run_ensembles([spec, DisorderSpec(p=0.9, steps=20, master_seed=3)], COIN, 1)[0]
        assert np.array_equal(alone.mean_variance, paired.mean_variance)
        assert np.array_equal(alone.mean_probabilities, paired.mean_probabilities)
        assert alone.max_norm_drift == paired.max_norm_drift

    @pytest.mark.parametrize("steps,n_maps", [(5, 20), (20, chunk_maps(20) + 2)])
    def test_identical_maps_have_exactly_zero_std(self, steps, n_maps):
        # At p = 0 every map is the ordered walk. Their mean can differ from
        # the common value in the last bit, which makes a plain n-1 std read
        # ~4.6e-16 at step 3 instead of 0. Across two chunks each map's
        # moments must also round the same whatever its block size (a
        # matrix-vector product left 1.8e-15 at steps 14, 15 and 18).
        res = run_ensemble(DisorderSpec(p=0.0, steps=steps, master_seed=1), COIN, n_maps)
        np.testing.assert_array_equal(res.std_variance, np.zeros(steps))

    def test_mean_and_std_zero_only_where_all_rows_agree(self):
        values = np.array([[0.1, 1.0, 2.0], [0.1, 1.0, 2.5], [0.1, 1.0, 3.0]])
        mean, std = mean_and_std(values)
        np.testing.assert_array_equal(mean, values.mean(axis=0))
        np.testing.assert_array_equal(std, [0.0, 0.0, values[:, 2].std(ddof=1)])
        mean, std = mean_and_std(values[:1])
        np.testing.assert_array_equal(std, np.zeros(3))

    @pytest.mark.parametrize("n_maps", [2, 3, 64, chunk_maps(20) + 51])
    def test_mean_and_std_are_numpys_bit_for_bit(self, n_maps):
        # The mean is taken once, the std from it with numpy's own ufuncs:
        # both equal values.mean and values.std(ddof=1) exactly, except
        # where every map agrees and the std is 0 by rule.
        rng = np.random.default_rng(n_maps)
        for scale in (1e-3, 1.0, 1e3):
            values = scale * rng.random((3, n_maps, 20)) ** 3
            values[:, :, :4] = values[:, :1, :4]  # steps where every map agrees
            values[1, :, 7] = 0.1
            mean, std = mean_and_std(values)
            assert mean.tobytes() == values.mean(axis=-2).tobytes()
            agree = (values == values[:, :1]).all(axis=-2)
            assert agree.sum() == 3 * 4 + 1
            assert not std[agree].any()
            assert std[~agree].tobytes() == values.std(axis=-2, ddof=1)[~agree].tobytes()

    def test_mean_and_std_of_stacked_p_match_one_call_per_p(self):
        values = np.random.default_rng(3).random((4, 5, 6))
        values[1] = values[1, :1]  # every map of the second p agrees
        for maps in (values, values[:, :1]):
            mean, std = mean_and_std(maps)
            for k in range(4):
                one_mean, one_std = mean_and_std(maps[k])
                assert np.array_equal(mean[k], one_mean)
                assert np.array_equal(std[k], one_std)
            assert not std[1].any()

    def test_mean_distributions_are_normalized_means(self):
        spec = DisorderSpec(p=0.9, steps=4, master_seed=13)
        res = run_ensemble(spec, COIN, 8)
        assert len(res.mean_distributions) == 4
        stack = []
        for k in range(8):
            pm = generate_phase_map(spec, k)
            states = evolve(spec.steps, COIN, pm, spec.steps)
            stack.append([position_distribution(s).probabilities for s in states])
        manual = np.asarray(stack).mean(axis=0)
        for n, dist in enumerate(res.mean_distributions):
            assert dist.offset == -4
            assert dist.total() == pytest.approx(1.0, abs=1e-12)
            # batched states live on the steps-wide lattice; align centers
            pad = (dist.probabilities.size - manual.shape[-1]) // 2
            np.testing.assert_allclose(
                dist.probabilities[pad : pad + manual.shape[-1]] if pad > 0 else dist.probabilities,
                manual[n],
                atol=1e-12,
            )

    def test_repeat_call_is_bit_identical(self):
        spec = DisorderSpec(p=0.6, steps=5, master_seed=5)
        a = run_ensemble(spec, COIN, 40)
        b = run_ensemble(spec, COIN, 40)
        np.testing.assert_array_equal(a.mean_variance, b.mean_variance)

    def test_fully_disordered_mean_approaches_binomial(self):
        spec = DisorderSpec(p=1.0, steps=5, master_seed=11)
        res = run_ensemble(spec, COIN, 400)
        s = similarity(res.mean_distributions[-1], crw_reference(5))
        assert s >= 0.98

    def test_result_metadata(self):
        spec = DisorderSpec(p=0.3, steps=4, master_seed=21)
        res = run_ensemble(spec, COIN, 3)
        assert (res.p, res.steps, res.n_maps, res.master_seed) == (0.3, 4, 3, 21)

    def test_validation(self):
        spec = DisorderSpec(p=0.5, steps=3, master_seed=1)
        with pytest.raises(DomainError):
            run_ensemble(spec, COIN, 0)

    @pytest.mark.parametrize("other", [
        DisorderSpec(p=0.5, steps=4, master_seed=1),
        DisorderSpec(p=0.5, steps=3, master_seed=2),
        DisorderSpec(p=0.5, steps=3, master_seed=1, alphabet=(0.5,)),
        DisorderSpec(p=0.5, steps=3, master_seed=1, sampling_mode="exact_fraction"),
    ], ids=["steps", "seed", "alphabet", "mode"])
    def test_specs_of_one_call_differ_only_in_p(self, other):
        spec = DisorderSpec(p=0.2, steps=3, master_seed=1)
        with pytest.raises(DomainError):
            run_ensembles([spec, other], COIN, 4)

    def test_no_specs_rejected(self):
        with pytest.raises(DomainError):
            run_ensembles([], COIN, 4)

    def test_batch_and_chunk_splits_change_no_bit(self, monkeypatch):
        # By default all five p share one walk. Then 2 * 23 maps a chunk
        # stacks two whole p per walk, and 8 maps a chunk splits every p
        # into four chunks, one per walk. Every split must give the bits of
        # the default scan and of one run_ensemble call per p. At steps 20
        # a moment taken as a matrix-vector product fails this.
        specs = [DisorderSpec(p=p, steps=20, master_seed=19) for p in (0.2, 0.5, 0.7, 1.0, 0.35)]
        n_maps = 23

        def scan():
            results = run_ensembles(specs, COIN, n_maps)
            for spec, res in zip(specs, results, strict=True):
                one = run_ensemble(spec, COIN, n_maps)
                assert np.array_equal(res.mean_variance, one.mean_variance)
                assert np.array_equal(res.std_variance, one.std_variance)
                assert np.array_equal(res.mean_probabilities, one.mean_probabilities)
                assert res.max_norm_drift == one.max_norm_drift
            return results

        assert chunk_maps(20) >= len(specs) * n_maps
        default = scan()
        for maps in (2 * n_maps, 8):
            monkeypatch.setattr(pdqw.ensemble, "BATCH_CELLS", maps * (20 + 1))
            assert chunk_maps(20) == maps
            for res, ref in zip(scan(), default, strict=True):
                assert np.array_equal(res.mean_variance, ref.mean_variance)
                assert np.array_equal(res.std_variance, ref.std_variance)
                assert np.array_equal(res.mean_probabilities, ref.mean_probabilities)
                assert res.max_norm_drift == ref.max_norm_drift

    # (specs, maps per p, maps per chunk, each walk's maps): every p in one
    # walk; several whole p per walk, the last walk holding fewer; one p
    # per walk; chunks of one p, the last one shorter.
    PLANS = [(5, 3, 15, [15]), (1, 1, 10, [1]), (5, 3, 7, [6, 6, 3]), (5, 23, 2 * 23, [46, 46, 23]),
             (7, 3, 4, [3] * 7), (5, 23, 8, [8, 8, 7] * 5)]

    @pytest.mark.parametrize("n_specs, n_maps, maps, walks", PLANS, ids=[f"{a}-{b}-{c}" for a, b, c, _ in PLANS])
    def test_both_scans_walk_one_batch_plan(self, monkeypatch, n_specs, n_maps, maps, walks):
        # The scans size their scratch from the first walk of the plan, so
        # it must be the largest.
        monkeypatch.setattr(pdqw.ensemble, "BATCH_CELLS", maps * (3 + 1))
        walk, rows = pdqw.ensemble._walk, []

        def counting_walk(*args):
            rows.append(args[3].shape[-1])  # the codes: one column per map
            return walk(*args)

        monkeypatch.setattr(pdqw.ensemble, "_walk", counting_walk)
        specs = [DisorderSpec(p=0.1 * j, steps=3, master_seed=2) for j in range(n_specs)]
        run_ensembles(specs, COIN, n_maps)
        ensemble, rows[:] = rows[:], []
        run_pair_ensembles(specs, COIN, n_maps, eta=0.6)
        assert ensemble == rows == walks
        assert rows[0] == max(rows)

    def test_memory_stays_within_a_few_batches(self):
        # Keeping every map's (steps, sites) distributions until the end
        # peaked at 13.0 MB here (a 6.6 MB tensor, concatenated once more).
        spec = DisorderSpec(p=0.5, steps=20, master_seed=2)
        tracemalloc.start()
        try:
            run_ensemble(spec, COIN, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSimilarityScan:
    def test_shapes_and_limits(self):
        grid = [0.0, 0.5, 1.0]
        scan = similarity_scan(grid, steps=5, n_maps=60, coin=COIN, master_seed=17)
        assert scan.s_ordered.shape == (5, 3)
        assert scan.s_disordered.shape == (5, 3)
        # p=0 ensemble is the ordered walk itself; p=1 is its own reference.
        np.testing.assert_allclose(scan.s_ordered[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(scan.s_disordered[:, 2], 1.0, atol=1e-12)

    def test_ordered_similarity_decreases_with_p(self):
        grid = [0.0, 0.3, 1.0]
        scan = similarity_scan(grid, steps=6, n_maps=80, coin=COIN, master_seed=23)
        last = scan.s_ordered[-1]
        assert last[0] > last[1] > last[2]

    def test_each_distinct_p_is_walked_once(self, monkeypatch):
        walked = []

        class CountingSampler(pdqw.ensemble.ScanSampler):
            def sample(self, i, start, stop):
                walked.append(self.specs[i].p)
                return super().sample(i, start, stop)

        monkeypatch.setattr(pdqw.ensemble, "ScanSampler", CountingSampler)
        # 10 maps are one chunk per p; 1.0 is the grid's and the reference's
        similarity_scan([0.0, 0.5, 1.0, 0.5], steps=4, n_maps=10, coin=COIN, master_seed=3)
        assert sorted(walked) == [0.0, 0.5, 1.0]

    def test_matches_scalar_similarity(self):
        grid = [0.0, 0.02, 0.3, 0.7, 1.0]
        scan = similarity_scan(grid, steps=7, n_maps=30, coin=COIN, master_seed=9)
        ordered = [position_distribution(s) for s in evolve(7, COIN, None, 7)]
        ref = run_ensemble(DisorderSpec(p=1.0, steps=7, master_seed=9), COIN, 30).mean_distributions
        for j, p in enumerate(grid):
            means = run_ensemble(DisorderSpec(p=p, steps=7, master_seed=9), COIN, 30).mean_distributions
            for n in range(7):
                assert scan.s_ordered[n, j] == similarity(means[n], ordered[n])
                assert scan.s_disordered[n, j] == similarity(means[n], ref[n])

    @pytest.mark.parametrize("mode", ["bernoulli", "exact_fraction"])
    @pytest.mark.parametrize("alphabet", [(0.0, np.pi), (0.0, 0.5 * np.pi, np.pi)], ids=["0-pi", "0-half-pi"])
    @pytest.mark.parametrize("n_maps", [7, chunk_maps(3) + 3], ids=["whole-p", "chunks"])
    def test_scores_the_means_of_run_ensembles(self, mode, alphabet, n_maps):
        # The scan walks without the per-map variances; its means and drift
        # must still be run_ensembles' to the bit.
        grid = [0.0, 0.3, 0.6]
        scan = similarity_scan(grid, 3, n_maps, COIN, master_seed=5, sampling_mode=mode, alphabet=alphabet)
        specs = [DisorderSpec(p, 3, alphabet, mode, master_seed=5) for p in [1.0, *grid]]
        results = run_ensembles(specs, COIN, n_maps)
        means = np.stack([r.mean_probabilities for r in results[1:]], axis=1)
        ordered = np.stack([position_distribution(s).probabilities for s in evolve(3, COIN, None, 3)])
        assert scan.s_ordered.tolist() == _similarities(means, ordered[:, None]).tolist()
        assert scan.s_disordered.tolist() == _similarities(means, results[0].mean_probabilities[:, None]).tolist()
        assert scan.max_norm_drift == max(r.max_norm_drift for r in results)

    @pytest.mark.parametrize("n_maps, batches", [(4, 3), (25, 5)], ids=["whole-p", "chunks"])
    def test_only_run_ensembles_takes_variance_moments(self, monkeypatch, n_maps, batches):
        monkeypatch.setattr(pdqw.ensemble, "BATCH_CELLS", 4 * 10)  # 10 maps a chunk at steps 3
        calls = []

        def counting(values):
            calls.append(values.shape)
            return mean_and_std(values)

        monkeypatch.setattr(pdqw.ensemble, "mean_and_std", counting)
        grid = [0.0, 0.1, 0.4, 0.8]
        similarity_scan(grid, 3, n_maps, COIN, master_seed=8)
        assert calls == []
        # One call per batch that finishes its p: 5 p two to a walk, or 3
        # chunks of one p to a walk.
        run_ensembles([DisorderSpec(p, 3, master_seed=8) for p in [1.0, *grid]], COIN, n_maps)
        assert len(calls) == batches

    def test_rows_score_as_the_scalar_similarity(self):
        # The scalar path squares with pow, which rounds differently from
        # x*x in about 1 value in 1000, so this needs many rows.
        rng = np.random.default_rng(1)
        g = rng.random((10000, 9)) ** 4
        h = rng.random((1, 9))
        got = _similarities(g, h)
        ref = Distribution(offset=0, probabilities=h[0])
        assert got.tolist() == [similarity(Distribution(offset=0, probabilities=row), ref) for row in g]

    def test_short_grid_rejected(self):
        with pytest.raises(DomainError):
            similarity_scan([0.5], steps=4, n_maps=10, coin=COIN, master_seed=1)

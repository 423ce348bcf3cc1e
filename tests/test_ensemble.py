"""Ensemble runner: batching, reduction order, and scan structure."""

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
    similarity,
    similarity_scan,
    variance,
)
import pdqw.ensemble
from pdqw.ensemble import CHUNK_SIZE, mean_and_std

COIN = hadamard_coin()


def per_map_variances(spec, n_maps):
    out = []
    for k in range(n_maps):
        pm = generate_phase_map(spec, k)
        states = evolve(spec.steps, COIN, pm, spec.steps)
        out.append([variance(position_distribution(s)) for s in states])
    return np.asarray(out)


class TestRunner:
    def test_single_map_matches_evolve(self):
        spec = DisorderSpec(p=0.8, steps=6, master_seed=31)
        res = run_ensemble(spec, COIN, 1)
        np.testing.assert_array_equal(res.mean_variance, per_map_variances(spec, 1)[0])
        np.testing.assert_array_equal(res.std_variance, np.zeros(6))

    @pytest.mark.parametrize("n_maps", [12, CHUNK_SIZE + 3])
    def test_mean_and_std_match_a_python_loop(self, n_maps):
        # CHUNK_SIZE + 3 maps span two chunks: the second must sample maps
        # CHUNK_SIZE.., and reduction must stay in index order.
        spec = DisorderSpec(p=0.5, steps=5, master_seed=7)
        res = run_ensemble(spec, COIN, n_maps)
        manual = per_map_variances(spec, n_maps)
        np.testing.assert_allclose(res.mean_variance, manual.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(res.std_variance, manual.std(axis=0, ddof=1), atol=1e-12)

    @pytest.mark.parametrize("steps,n_maps", [(5, 20), (20, CHUNK_SIZE + 2)])
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

    def test_each_distinct_p_runs_once(self, monkeypatch):
        runs = []
        real = pdqw.ensemble.run_ensemble

        def counting(spec, coin, n_maps):
            runs.append(spec.p)
            return real(spec, coin, n_maps)

        monkeypatch.setattr(pdqw.ensemble, "run_ensemble", counting)
        similarity_scan([0.0, 0.5, 1.0], steps=4, n_maps=10, coin=COIN, master_seed=3)
        assert sorted(runs) == [0.0, 0.5, 1.0]

    def test_short_grid_rejected(self):
        with pytest.raises(DomainError):
            similarity_scan([0.5], steps=4, n_maps=10, coin=COIN, master_seed=1)

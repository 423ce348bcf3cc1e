"""Two-photon statistics against a permanent-based Fock oracle and hand values."""

import math
import tracemalloc

import numpy as np
import pytest

import pdqw.ensemble
import pdqw.two_photon
from oracles import (
    pair_centroid_variance,
    pair_marginal,
    site_pairs,
    two_boson_pair_probabilities,
    two_boson_unitary,
)
from pdqw import (
    CoincidenceMatrix,
    DisorderSpec,
    DomainError,
    PairInput,
    coin_from_reflectivity,
    evolve,
    generate_phase_map,
    hadamard_coin,
    hom_scan,
    mode_index,
    position_distribution,
    run_pair_ensemble,
    run_pair_ensembles,
    single_particle_unitary,
    two_photon_mode_distribution,
)
from pdqw.disorder import DEFAULT_ALPHABET
from pdqw.ensemble import chunk_maps

COIN = hadamard_coin()


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def walk_unitary(p, steps, seed, n_max=None):
    n_max = n_max or steps
    pm = generate_phase_map(DisorderSpec(p=p, steps=steps, master_seed=seed), 0)
    return single_particle_unitary(n_max, COIN, pm, steps)


class TestOracleSelfChecks:
    @pytest.mark.parametrize("dim,seed", [(6, 0), (10, 1)])
    def test_fock_lift_of_a_unitary_is_unitary(self, dim, seed):
        u2 = two_boson_unitary(haar_unitary(dim, seed))
        np.testing.assert_allclose(u2.conj().T @ u2, np.eye(u2.shape[0]), atol=1e-10)
        assert u2.shape[0] == dim * (dim + 1) // 2

    def test_oracle_probabilities_normalize(self):
        probs = two_boson_pair_probabilities(haar_unitary(6, 3), 2, 4, eta=0.4)
        triangle = (probs.sum() + np.trace(probs)) / 2.0
        assert triangle == pytest.approx(1.0, abs=1e-12)


class TestModeDistribution:
    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("same_input", [False, True])
    def test_matches_fock_oracle_on_haar_unitaries(self, eta, same_input):
        u = haar_unitary(10, seed=7)  # lattice layout with n_max=2
        b = (0, 0) if same_input else (0, 1)
        got = two_photon_mode_distribution(u, PairInput((0, 0), b, eta=eta))
        expect = two_boson_pair_probabilities(
            u, mode_index(0, 0, 2), mode_index(*b, 2), eta=eta
        )
        np.testing.assert_allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize("steps,p,seed", [(2, 1.0, 5), (3, 0.5, 8), (3, 1.0, 9)])
    def test_matches_fock_oracle_on_walk_unitaries(self, steps, p, seed):
        u = walk_unitary(p, steps, seed)
        n_max = steps
        got = two_photon_mode_distribution(u, PairInput((0, 0), (0, 1), eta=1.0))
        expect = two_boson_pair_probabilities(
            u, mode_index(0, 0, n_max), mode_index(0, 1, n_max), eta=1.0
        )
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_output_is_exactly_symmetric_and_normalized(self):
        u = walk_unitary(1.0, 4, 11)
        m = two_photon_mode_distribution(u, PairInput((0, 0), (0, 1), eta=0.6))
        assert np.array_equal(m, m.T)
        assert (m.sum() + np.trace(m)) / 2.0 == pytest.approx(1.0, abs=1e-12)

    def test_identical_inputs_make_eta_irrelevant(self):
        # A double photon from one mode has no partner to be distinguishable
        # from: interference and product terms coincide.
        u = walk_unitary(0.7, 3, 2)
        a = two_photon_mode_distribution(u, PairInput((0, 0), (0, 0), eta=1.0))
        b = two_photon_mode_distribution(u, PairInput((0, 0), (0, 0), eta=0.0))
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_distinguishable_part_is_symmetrized_product(self):
        u = walk_unitary(1.0, 3, 4)
        ia, ib = mode_index(0, 0, 3), mode_index(0, 1, 3)
        pa = np.abs(u[:, ia]) ** 2
        pb = np.abs(u[:, ib]) ** 2
        expect = np.outer(pa, pb) + np.outer(pb, pa)
        expect[np.diag_indices(u.shape[0])] *= 0.5
        got = two_photon_mode_distribution(u, PairInput((0, 0), (0, 1), eta=0.0))
        np.testing.assert_allclose(got, expect, atol=1e-14)

    def test_nonunitary_input_rejected(self):
        with pytest.raises(DomainError):
            two_photon_mode_distribution(np.eye(6) * 1.5, PairInput((0, 0), (0, 1)))

    def test_eta_validated(self):
        with pytest.raises(DomainError):
            PairInput((0, 0), (0, 1), eta=1.2)


class TestSingleStepHandValues:
    """One balanced splitter: the textbook bunching configuration."""

    def u(self):
        return single_particle_unitary(1, COIN, None, 1)

    def test_full_bunching_at_eta_one(self):
        sites = site_pairs(two_photon_mode_distribution(self.u(), PairInput((0, 0), (0, 1), eta=1.0)))
        # All mass on the diagonal: (-1,-1) and (+1,+1) at 1/2 each.
        np.testing.assert_allclose(np.diag(sites), [0.5, 0.0, 0.5], atol=1e-14)
        assert sites[0, 2] == pytest.approx(0.0, abs=1e-14)
        assert pair_centroid_variance(sites) == pytest.approx(1.0, abs=1e-13)

    def test_distinguishable_pair_splits_half_the_time(self):
        sites = site_pairs(two_photon_mode_distribution(self.u(), PairInput((0, 0), (0, 1), eta=0.0)))
        np.testing.assert_allclose(np.diag(sites), [0.25, 0.0, 0.25], atol=1e-14)
        assert sites[0, 2] == pytest.approx(0.5, abs=1e-14)
        assert pair_centroid_variance(sites) == pytest.approx(0.5, abs=1e-13)


class TestSiteAggregation:
    def test_triangle_total_preserved(self):
        u = walk_unitary(1.0, 4, 21)
        sites = site_pairs(two_photon_mode_distribution(u, PairInput((0, 0), (0, 1), 0.8)))
        cm = CoincidenceMatrix(offset=-4, probabilities=sites)
        assert cm.triangle_total() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(cm.sites, np.arange(-4, 5))

    def test_marginal_of_identical_input_pair_is_the_single_photon_walk(self):
        steps = 3
        pm = generate_phase_map(DisorderSpec(p=1.0, steps=steps, master_seed=6), 0)
        u = single_particle_unitary(steps, COIN, pm, steps)
        sites = site_pairs(two_photon_mode_distribution(u, PairInput((0, 0), (0, 0), eta=0.0)))
        single = position_distribution(evolve(steps, COIN, pm, steps)[-1])
        np.testing.assert_allclose(pair_marginal(sites), single.probabilities, atol=1e-12)

    def test_asymmetric_matrix_rejected(self):
        m = np.zeros((3, 3))
        m[0, 1] = 0.5
        with pytest.raises(DomainError):
            CoincidenceMatrix(offset=-1, probabilities=m)

    def test_unnormalized_pair_mass_rejected(self):
        # The pair scan checks every map's pair mass at every step.
        pdqw.two_photon._require_pair_normalized(np.array([1.0, 1.0 + 1e-10]))
        with pytest.raises(DomainError):
            pdqw.two_photon._require_pair_normalized(np.array([1.0, 0.3]))


def manual_pair_ensemble(spec, n_maps, eta, pair_modes=((0, 0), (0, 1))):
    """Per-map loop over dense step unitaries: (mean matrices, per-map var2)."""
    steps = spec.steps
    mean = np.zeros((steps, 2 * steps + 1, 2 * steps + 1))
    var2 = np.zeros((n_maps, steps))
    for k in range(n_maps):
        pm = generate_phase_map(spec, k)
        for n in range(1, steps + 1):
            u = single_particle_unitary(steps, COIN, pm, n)
            sites = site_pairs(two_photon_mode_distribution(u, PairInput(*pair_modes, eta=eta)))
            mean[n - 1] += sites / n_maps
            var2[k, n - 1] = pair_centroid_variance(sites)
    return mean, var2


def fock_site_pairs(u, pair_modes, eta):
    """Unordered site-pair probabilities from the Fock oracle, coin traced out."""
    n_max = (u.shape[0] // 2 - 1) // 2
    return site_pairs(two_boson_pair_probabilities(
        u, mode_index(*pair_modes[0], n_max), mode_index(*pair_modes[1], n_max), eta
    ))


PAIR_MODES = [((0, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (0, 0))]
QUARTER_TURNS = (0.0, 0.5 * math.pi, math.pi)


def assert_matches_fock_oracle(spec, eta, pair_modes):
    """One map's last-step pair statistics against the Fock oracle."""
    res = run_pair_ensemble(spec, COIN, 1, eta=eta, pair_modes=pair_modes)
    u = single_particle_unitary(spec.steps, COIN, generate_phase_map(spec, 0), spec.steps)
    expect = fock_site_pairs(u, pair_modes, eta)
    np.testing.assert_allclose(res.mean_matrices[-1].probabilities, expect, atol=1e-10)
    assert res.mean_variance2[-1] == pytest.approx(pair_centroid_variance(expect), abs=1e-10)


def assert_same_pair_ensemble(a, b):
    for x, y in zip(a.mean_matrices, b.mean_matrices, strict=True):
        assert np.array_equal(x.probabilities, y.probabilities)
    assert np.array_equal(a.mean_variance2, b.mean_variance2)
    assert np.array_equal(a.std_variance2, b.std_variance2)
    assert (a.p, a.n_maps, a.max_norm_drift) == (b.p, b.n_maps, b.max_norm_drift)


class TestPairEnsemble:
    def test_mean_matches_manual_loop(self):
        spec = DisorderSpec(p=1.0, steps=3, master_seed=14)
        res = run_pair_ensemble(spec, COIN, 3, eta=1.0)
        manual, var2 = manual_pair_ensemble(spec, 3, eta=1.0)
        for n in range(3):
            np.testing.assert_allclose(res.mean_matrices[n].probabilities, manual[n], atol=1e-12)
        np.testing.assert_allclose(res.mean_variance2, var2.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(res.std_variance2, var2.std(axis=0, ddof=1), atol=1e-12)

    def test_chunk_boundary_matches_manual_loop(self, monkeypatch):
        # Up to step 3 every {0, pi} map gives the same pair statistics. With
        # this alphabet and seed, maps 128-130 differ from maps 0-2, so a
        # chunk that reads the wrong maps shows. The manual loop is slow, so
        # the batch budget shrinks to 128 maps a chunk.
        monkeypatch.setattr(pdqw.ensemble, "BATCH_CELLS", 4 * 128)
        n_maps = chunk_maps(3) + 3
        spec = DisorderSpec(p=0.5, steps=3, master_seed=21, alphabet=(0.0, 1.0, 2.0))
        res = run_pair_ensemble(spec, COIN, n_maps, eta=0.4)
        manual, var2 = manual_pair_ensemble(spec, n_maps, eta=0.4)
        for n in range(3):
            np.testing.assert_allclose(res.mean_matrices[n].probabilities, manual[n], atol=1e-12)
        np.testing.assert_allclose(res.mean_variance2, var2.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(res.std_variance2, var2.std(axis=0, ddof=1), atol=1e-12)

    # The Fock lift of an 18-mode unitary takes about 0.4 s, so each case is
    # checked on the final step of one map. Inputs at sites +-1 reach the
    # lattice edge by step 4 and wrap around; test_walk_core pins the
    # unitary's periodic edge to the loop-built dense oracle.
    @pytest.mark.parametrize(
        "p, eta, pair_modes",
        [(0.5, eta, modes) for eta in (0.0, 0.4, 1.0) for modes in PAIR_MODES]
        + [(0.0, 0.4, PAIR_MODES[0]), (1.0, 0.4, PAIR_MODES[0]), (1.0, 0.4, ((1, 0), (-1, 1)))],
    )
    def test_matches_fock_oracle(self, p, eta, pair_modes):
        assert_matches_fock_oracle(DisorderSpec(p=p, steps=4, master_seed=12), eta, pair_modes)

    # The default alphabet walks in float64, where G has no imaginary part;
    # this one keeps the walk in complex128.
    @pytest.mark.parametrize("pair_modes", PAIR_MODES)
    def test_complex_walk_matches_fock_oracle(self, pair_modes):
        spec = DisorderSpec(p=0.5, steps=4, master_seed=12, alphabet=QUARTER_TURNS)
        assert_matches_fock_oracle(spec, 0.4, pair_modes)

    def test_mean_matrices_stay_normalized(self):
        res = run_pair_ensemble(DisorderSpec(p=0.5, steps=4, master_seed=3), COIN, 5, eta=0.7)
        for cm in res.mean_matrices:
            assert cm.triangle_total() == pytest.approx(1.0, abs=1e-12)

    def test_repeat_is_bit_identical(self):
        spec = DisorderSpec(p=0.9, steps=3, master_seed=2)
        a = run_pair_ensemble(spec, COIN, 4, eta=0.5)
        b = run_pair_ensemble(spec, COIN, 4, eta=0.5)
        np.testing.assert_array_equal(a.mean_variance2, b.mean_variance2)

    @pytest.mark.parametrize("n_maps", [12, chunk_maps(20) + 2])
    def test_identical_maps_have_exactly_zero_std(self, n_maps):
        # Every p = 0 map is the same walk; a plain n-1 std of their equal
        # values reads up to ~2.2e-14 here, from the rounding of their mean.
        # With two chunks, a matrix-vector product for the moments rounded
        # differently per block size and left up to 1.35e-13.
        res = run_pair_ensemble(DisorderSpec(p=0.0, steps=20, master_seed=1), COIN, n_maps, eta=1.0)
        np.testing.assert_array_equal(res.std_variance2, np.zeros(20))

    def test_n_maps_validated(self):
        with pytest.raises(DomainError):
            run_pair_ensemble(DisorderSpec(p=0.5, steps=2, master_seed=1), COIN, 0, eta=1.0)

    def test_a_long_scan_holds_only_its_light_cone(self):
        # A walk from the origin fills the (n + 1)^2 site pairs of parity n
        # at step n: 3310 of the 20 x 41 x 41 cells of full matrices, which
        # held 26.5 MiB after this call and peaked at 31.0 MiB.
        specs = [DisorderSpec(p=p, steps=20, master_seed=5) for p in np.linspace(0.0, 1.0, 101)]
        tracemalloc.start()
        try:
            res = run_pair_ensembles(specs, COIN, 12, eta=0.6)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**20
        assert peak < 10 * 2**20
        for ens in res[::25]:
            assert [m.shape for m in ens.window_matrices] == [(n + 1, n + 1) for n in range(1, 21)]
            for n, (sites, cm) in enumerate(zip(ens.window_sites, ens.mean_matrices), start=1):
                np.testing.assert_array_equal(sites, np.arange(-n, n + 1, 2))
                off = np.ones(41, dtype=bool)
                off[sites + 20] = False
                assert not cm.probabilities[off].any() and not cm.probabilities[:, off].any()


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, QUARTER_TURNS], ids=["float64", "complex128"])
class TestPairScan:
    GRID = [0.0, 0.3, 1.0, 0.3, 0.8]

    def specs(self, alphabet, steps=5):
        return [DisorderSpec(p=p, steps=steps, alphabet=alphabet, master_seed=4) for p in self.GRID]

    def test_scan_matches_per_spec_calls(self, alphabet):
        specs = self.specs(alphabet)
        for spec, res in zip(specs, run_pair_ensembles(specs, COIN, 30, eta=0.6), strict=True):
            assert_same_pair_ensemble(res, run_pair_ensemble(spec, COIN, 30, eta=0.6))

    @pytest.mark.parametrize("pair_modes", [PAIR_MODES[0], PAIR_MODES[2]], ids=["distinct", "same"])
    def test_chunk_split_changes_no_bit(self, alphabet, pair_modes, monkeypatch):
        # More maps than the old fixed chunk of 128: by default all five p
        # share one walk; then each p walks in three chunks (100, 100 and 31
        # maps); then two whole p share a walk (walks of 2, 2 and 1 p).
        specs = self.specs(alphabet)
        whole = run_pair_ensembles(specs, COIN, 231, eta=0.6, pair_modes=pair_modes)
        for maps in (100, 2 * 231):
            monkeypatch.setattr(pdqw.ensemble, "BATCH_CELLS", 6 * maps)
            assert chunk_maps(5) == maps
            split = run_pair_ensembles(specs, COIN, 231, eta=0.6, pair_modes=pair_modes)
            for a, b in zip(whole, split, strict=True):
                assert_same_pair_ensemble(a, b)

    def test_a_one_map_walk_rounds_as_a_wide_one(self, alphabet):
        # One map alone is a walk of one row, whose site sums numpy would
        # take pairwise; next to another p it is a row of a wider walk.
        spec, other = self.specs(alphabet, steps=20)[1:3]
        alone = run_pair_ensemble(spec, COIN, 1, eta=0.6)
        assert_same_pair_ensemble(alone, run_pair_ensembles([spec, other], COIN, 1, eta=0.6)[0])

    def test_a_small_scan_is_one_walk(self, alphabet, monkeypatch):
        # The two-photon-20 benchmark shape: 5 p x 12 maps fit one batch.
        walk, walks = pdqw.two_photon._walk, []

        def counting_walk(*args):
            walks.append(args[3].shape[-1])  # the codes: one column per map
            return walk(*args)

        monkeypatch.setattr(pdqw.two_photon, "_walk", counting_walk)
        run_pair_ensembles(self.specs(alphabet, steps=20), COIN, 12, eta=0.6)
        assert walks == [5 * 12]

    @pytest.mark.parametrize("steps, n_maps", [(5, 131), (20, 300)])
    def test_mean_matrices_add_maps_in_index_order(self, alphabet, steps, n_maps):
        # At p = 0 every map is the same walk, with map 0's density d; the
        # index-order sum adds n_maps copies of d one by one. Summing chunk
        # by chunk moves up to a few thousand cells in the last bit.
        spec = DisorderSpec(p=0.0, steps=steps, alphabet=alphabet, master_seed=1)
        one = run_pair_ensemble(spec, COIN, 1, eta=0.6)
        res = run_pair_ensemble(spec, COIN, n_maps, eta=0.6)
        for m1, m in zip(one.mean_matrices, res.mean_matrices, strict=True):
            d = m1.probabilities / 2.0
            np.fill_diagonal(d, np.diagonal(m1.probabilities))
            total = np.stack([d] * n_maps).sum(axis=0)
            expect = 2.0 * total
            np.fill_diagonal(expect, np.diagonal(total))
            assert np.array_equal(m.probabilities, expect / n_maps)


class TestHomScan:
    def test_balanced_splitter_dip_floor(self):
        scan = hom_scan([0.0], coherence_time=1.0, visibility=0.93, coin=COIN)
        assert scan.coincidences[0] == pytest.approx(0.07, abs=1e-12)

    def test_perfect_visibility_reaches_zero(self):
        scan = hom_scan([0.0], coherence_time=1.0, visibility=1.0, coin=COIN)
        assert scan.coincidences[0] == pytest.approx(0.0, abs=1e-12)

    def test_far_delay_baseline_is_one(self):
        scan = hom_scan([40.0, -40.0], coherence_time=1.0, visibility=0.93, coin=COIN)
        np.testing.assert_allclose(scan.coincidences, 1.0, atol=1e-12)

    def test_etas_follow_the_gaussian_overlap(self):
        scan = hom_scan([-1.0, 0.0, 2.0], coherence_time=2.0, visibility=0.9, coin=COIN)
        np.testing.assert_allclose(scan.etas, 0.9 * np.exp(-((scan.delays / 2.0) ** 2)), rtol=1e-15)

    def test_dip_shape(self):
        delays = np.linspace(-3.0, 3.0, 25)
        scan = hom_scan(delays, coherence_time=1.0, visibility=0.8, coin=COIN)
        assert scan.coincidences.min() == scan.coincidences[12]
        assert np.all(scan.coincidences <= 1.0 + 1e-12)
        assert np.all(scan.coincidences >= 0.2 - 1e-12)
        # symmetric in the delay sign
        np.testing.assert_allclose(scan.coincidences, scan.coincidences[::-1], atol=1e-12)

    def test_unbalanced_splitter_floor_is_reflectivity_mismatch(self):
        # R=0.45: interfering coincidence (T-R)^2 = 0.01 against the
        # distinguishable baseline R^2 + T^2 = 0.505.
        coin = coin_from_reflectivity(0.45)
        scan = hom_scan([0.0], coherence_time=1.0, visibility=1.0, coin=coin)
        assert scan.coincidences[0] == pytest.approx(0.01 / 0.505, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            hom_scan([], 1.0, 0.9, COIN)
        with pytest.raises(DomainError):
            hom_scan([0.0], 0.0, 0.9, COIN)
        with pytest.raises(DomainError):
            hom_scan([0.0], 1.0, 1.5, COIN)

"""Two-photon statistics against a permanent-based Fock oracle and hand values."""

import math
import tracemalloc

import numpy as np
import pytest

import pdqw.ensemble
import pdqw.two_photon
from oracles import (
    dense_unitary,
    dense_walk,
    mode,
    on_lattice,
    pair_centroid_variance,
    pair_marginal,
    phase_rows,
    site_pairs,
    two_boson_pair_probabilities,
    two_boson_unitary,
)
from pdqw import (
    DisorderSpec,
    DomainError,
    coin_from_reflectivity,
    generate_phase_map,
    hadamard_coin,
    hom_scan,
    run_pair_ensemble,
    run_pair_ensembles,
)
from pdqw.disorder import DEFAULT_ALPHABET
from pdqw.ensemble import chunk_maps

COIN = hadamard_coin()
PHASE_COIN = np.diag([1, 1j]) @ coin_from_reflectivity(0.3)


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def map_unitary(spec, k, steps):
    """The dense mode unitary of map k of spec after `steps` steps, on the
    lattice of half-width spec.steps."""
    pm = generate_phase_map(spec, k)
    return dense_unitary(spec.steps, COIN, phase_rows(pm.codes, pm.alphabet), steps)


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

    @pytest.mark.parametrize("a, b", [(2, 4), (3, 3)])
    def test_pair_probabilities_are_a_column_of_the_lift(self, a, b):
        u = haar_unitary(6, 5)
        pairs = [(k, l) for k in range(6) for l in range(k, 6)]
        column = np.abs(two_boson_unitary(u)[:, pairs.index((a, b))]) ** 2
        probs = two_boson_pair_probabilities(u, b, a, eta=1.0)
        np.testing.assert_allclose([probs[k, l] for k, l in pairs], column, rtol=0, atol=1e-15)


class TestSingleStepHandValues:
    """One balanced splitter: the textbook bunching configuration. A photon
    pair from the origin's two coins reaches sites -1 and +1 only."""

    @staticmethod
    def step_one(eta):
        res = run_pair_ensemble(DisorderSpec(p=0.0, steps=1), COIN, 1, eta=eta)
        np.testing.assert_array_equal(res.window_sites[0], [-1, 1])
        return res.window_matrices[0], res.mean_variance2[0]

    def test_full_bunching_at_eta_one(self):
        sites, var2 = self.step_one(1.0)
        # All mass on the diagonal: (-1,-1) and (+1,+1) at 1/2 each.
        np.testing.assert_allclose(np.diag(sites), [0.5, 0.5], atol=1e-14)
        assert sites[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert var2 == pytest.approx(1.0, abs=1e-13)

    def test_distinguishable_pair_splits_half_the_time(self):
        sites, var2 = self.step_one(0.0)
        np.testing.assert_allclose(np.diag(sites), [0.25, 0.25], atol=1e-14)
        assert sites[0, 1] == pytest.approx(0.5, abs=1e-14)
        assert var2 == pytest.approx(0.5, abs=1e-13)


class TestSiteAggregation:
    @pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
    def test_marginal_of_the_pair_is_the_mean_single_photon_walk(self, eta):
        # One detector sees each photon half the time whatever eta: the
        # inputs are orthogonal, so interference moves no single-site mass.
        steps = 3
        spec = DisorderSpec(p=1.0, steps=steps, master_seed=6)
        res = run_pair_ensemble(spec, COIN, 1, eta=eta)
        pm = generate_phase_map(spec, 0)
        a, b = (dense_walk(steps, COIN, phase_rows(pm.codes, pm.alphabet), steps, coin_amplitudes=c)[-1]
                for c in ((1.0, 0.0), (0.0, 1.0)))
        np.testing.assert_allclose(pair_marginal(on_lattice(res, steps)), (a + b) / 2.0, atol=1e-12)

    def test_unnormalized_pair_mass_rejected(self):
        # The pair scan checks every map's pair mass at every step.
        pdqw.two_photon._require_pair_normalized(np.array([1.0, 1.0 + 1e-10]))
        with pytest.raises(DomainError):
            pdqw.two_photon._require_pair_normalized(np.array([1.0, 0.3]))

    @pytest.mark.parametrize("drift", [2e-9, -2e-9, math.nan])
    def test_pair_mass_beyond_the_tolerance_rejected(self, drift):
        assert not abs(drift) <= pdqw.two_photon.PAIR_NORMALIZATION_TOL
        with pytest.raises(DomainError, match="mass"):
            pdqw.two_photon._require_pair_normalized(np.array([1.0, 1.0 + drift, 1.0]))

    @pytest.mark.parametrize("drift", [5e-10, -5e-10])
    def test_pair_mass_within_the_tolerance_accepted(self, drift):
        pdqw.two_photon._require_pair_normalized(np.array([1.0 + drift, 1.0, 1.0 - drift]))

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, math.nan])
    def test_non_orthonormal_input_columns_rejected(self, monkeypatch, scale):
        # A coin scaled by 1 + 1e-9 passes no coin check, so it is slipped
        # in after the check: each step then grows every column's weight by
        # about 2e-9, far above UNITARY_TOL. A NaN coin makes NaN columns.
        operands = pdqw.ensemble._walk_operands

        def scaled(coin, alphabet):
            coin, table = operands(coin, alphabet)
            return coin * scale, table

        monkeypatch.setattr(pdqw.ensemble, "_walk_operands", scaled)
        with pytest.raises(DomainError, match="orthonormal"):
            run_pair_ensemble(DisorderSpec(p=0.5, steps=3, master_seed=1), COIN, 2, eta=0.6)


def manual_pair_ensemble(spec, n_maps, eta):
    """Per-map loop over dense mode unitaries and the Fock oracle: (mean
    matrices, per-map var2)."""
    steps = spec.steps
    mean = np.zeros((steps, 2 * steps + 1, 2 * steps + 1))
    var2 = np.zeros((n_maps, steps))
    for k in range(n_maps):
        for n in range(1, steps + 1):
            sites = fock_site_pairs(map_unitary(spec, k, steps=n), eta)
            mean[n - 1] += sites / n_maps
            var2[k, n - 1] = pair_centroid_variance(sites)
    return mean, var2


def fock_site_pairs(u, eta):
    """Unordered site-pair probabilities from the Fock oracle for photons
    entering coin 0 and coin 1 of the origin, coin traced out."""
    n_max = (u.shape[0] // 2 - 1) // 2
    return site_pairs(two_boson_pair_probabilities(u, mode(0, 0, n_max), mode(0, 1, n_max), eta))


QUARTER_TURNS = (0.0, 0.5 * math.pi, math.pi)


def assert_matches_fock_oracle(spec, eta):
    """One map's last-step pair statistics against the Fock oracle."""
    res = run_pair_ensemble(spec, COIN, 1, eta=eta)
    expect = fock_site_pairs(map_unitary(spec, 0, spec.steps), eta)
    np.testing.assert_allclose(on_lattice(res, spec.steps), expect, atol=1e-10)
    assert res.mean_variance2[-1] == pytest.approx(pair_centroid_variance(expect), abs=1e-10)


def assert_same_pair_ensemble(a, b):
    for x, y in zip(a.window_matrices, b.window_matrices, strict=True):
        assert np.array_equal(x, y)
    assert np.array_equal(a.mean_variance2, b.mean_variance2)
    assert np.array_equal(a.std_variance2, b.std_variance2)
    assert (a.p, a.n_maps, a.max_norm_drift) == (b.p, b.n_maps, b.max_norm_drift)


class TestPairEnsemble:
    def test_mean_matches_manual_loop(self):
        spec = DisorderSpec(p=1.0, steps=3, master_seed=14)
        res = run_pair_ensemble(spec, COIN, 3, eta=1.0)
        manual, var2 = manual_pair_ensemble(spec, 3, eta=1.0)
        for n in range(3):
            np.testing.assert_allclose(on_lattice(res, n + 1), manual[n], atol=1e-12)
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
            np.testing.assert_allclose(on_lattice(res, n + 1), manual[n], atol=1e-12)
        np.testing.assert_allclose(res.mean_variance2, var2.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(res.std_variance2, var2.std(axis=0, ddof=1), atol=1e-12)

    # Each case is checked on the final step of one map.
    @pytest.mark.parametrize("p, eta", [(0.5, 0.0), (0.5, 0.4), (0.5, 1.0), (0.0, 0.4), (1.0, 0.4)])
    def test_matches_fock_oracle(self, p, eta):
        assert_matches_fock_oracle(DisorderSpec(p=p, steps=4, master_seed=12), eta)

    # The default alphabet walks in float64, where G has no imaginary part;
    # this one keeps the walk in complex128.
    def test_complex_walk_matches_fock_oracle(self):
        spec = DisorderSpec(p=0.5, steps=4, master_seed=12, alphabet=QUARTER_TURNS)
        assert_matches_fock_oracle(spec, 0.4)

    def test_mean_matrices_stay_normalized(self):
        res = run_pair_ensemble(DisorderSpec(p=0.5, steps=4, master_seed=3), COIN, 5, eta=0.7)
        for m in res.window_matrices:
            assert np.array_equal(m, m.T)
            assert (m.sum() + np.trace(m)) / 2.0 == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("eta", [1.2, -0.1, math.nan])
    def test_eta_validated(self, eta):
        with pytest.raises(DomainError, match="eta"):
            run_pair_ensemble(DisorderSpec(p=0.5, steps=2, master_seed=1), COIN, 2, eta=eta)

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
            for n, sites in enumerate(ens.window_sites, start=1):
                np.testing.assert_array_equal(sites, np.arange(-n, n + 1, 2))


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, QUARTER_TURNS], ids=["float64", "complex128"])
class TestPairScan:
    GRID = [0.0, 0.3, 1.0, 0.3, 0.8]

    def specs(self, alphabet, steps=5):
        return [DisorderSpec(p=p, steps=steps, alphabet=alphabet, master_seed=4) for p in self.GRID]

    def test_scan_matches_per_spec_calls(self, alphabet):
        specs = self.specs(alphabet)
        for spec, res in zip(specs, run_pair_ensembles(specs, COIN, 30, eta=0.6), strict=True):
            assert_same_pair_ensemble(res, run_pair_ensemble(spec, COIN, 30, eta=0.6))

    def test_chunk_split_changes_no_bit(self, alphabet, monkeypatch):
        # More maps than the old fixed chunk of 128: by default all five p
        # share one walk; then each p walks in three chunks (100, 100 and 31
        # maps); then two whole p share a walk (walks of 2, 2 and 1 p).
        specs = self.specs(alphabet)
        whole = run_pair_ensembles(specs, COIN, 231, eta=0.6)
        for maps in (100, 2 * 231):
            monkeypatch.setattr(pdqw.ensemble, "BATCH_CELLS", 6 * maps)
            assert chunk_maps(5) == maps
            split = run_pair_ensembles(specs, COIN, 231, eta=0.6)
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
        walk, walks = pdqw.ensemble._walk, []

        def counting_walk(*args):
            walks.append(args[3].shape[-1])  # the codes: one column per map
            return walk(*args)

        monkeypatch.setattr(pdqw.ensemble, "_walk", counting_walk)
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
        for m1, m in zip(one.window_matrices, res.window_matrices, strict=True):
            d = m1 / 2.0
            np.fill_diagonal(d, np.diagonal(m1))
            total = np.stack([d] * n_maps).sum(axis=0)
            expect = 2.0 * total
            np.fill_diagonal(expect, np.diagonal(total))
            assert np.array_equal(m, expect / n_maps)


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

    @pytest.mark.parametrize("coin", [COIN, coin_from_reflectivity(0.5)], ids=["hadamard", "R=0.5"])
    def test_balanced_zero_delay_is_exactly_one_minus_visibility(self, coin):
        for v in [*np.linspace(0.0, 1.0, 101), 0.93]:
            assert hom_scan([0.0], 1.0, v, coin).coincidences[0] == 1.0 - v

    @pytest.mark.parametrize("coin", [coin_from_reflectivity(0.45), coin_from_reflectivity(0.2), PHASE_COIN],
                             ids=["R=0.45", "R=0.2", "complex"])
    @pytest.mark.parametrize("visibility", [1.0, 0.8])
    def test_matches_the_fock_lift_of_one_splitter_stage(self, coin, visibility):
        # The photons enter coin 0 and coin 1 of the origin; after one step
        # they are in different modes when they leave on different sites.
        u = dense_unitary(1, coin, None, 1)
        a, b = mode(0, 0, 1), mode(0, 1, 1)

        def distinct(eta):
            return site_pairs(two_boson_pair_probabilities(u, a, b, eta))[0, 2]

        scan = hom_scan(np.linspace(-3.0, 3.0, 13), 1.3, visibility, coin)
        expect = [distinct(eta) / distinct(0.0) for eta in scan.etas]
        np.testing.assert_allclose(scan.coincidences, expect, rtol=0, atol=1e-15)

    def test_phases_on_the_splitter_ports_change_nothing(self):
        # Input and output phases leave |perm c| and the distinguishable
        # baseline as they are, so the dip is the one of the bare splitter.
        coin = coin_from_reflectivity(0.3)
        phased = np.diag(np.exp(1j * np.array([0.4, -1.1]))) @ coin @ np.diag(np.exp(1j * np.array([2.0, 0.7])))
        delays = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(hom_scan(delays, 1.0, 0.85, phased).coincidences,
                                   hom_scan(delays, 1.0, 0.85, coin).coincidences, rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            hom_scan([], 1.0, 0.9, COIN)
        with pytest.raises(DomainError):
            hom_scan([0.0], 0.0, 0.9, COIN)
        for visibility in (1.5, -0.1, math.nan):
            with pytest.raises(DomainError, match="visibility"):
                hom_scan([0.0], 1.0, visibility, COIN)
        for delays in ([0.0, math.nan], [math.inf], [[0.0, 1.0]], 0.0):
            with pytest.raises(DomainError, match="delays"):
                hom_scan(delays, 1.0, 0.9, COIN)
        for coherence_time in (math.nan, math.inf):
            with pytest.raises(DomainError, match="coherence_time"):
                hom_scan([0.0], coherence_time, 0.9, COIN)

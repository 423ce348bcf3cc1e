"""Single-walker dynamics against independent oracles and hand values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_positions, dense_step_matrix, dense_walk, phase_rows
from pdqw import (
    CapacityError,
    DisorderSpec,
    DomainError,
    PhaseMap,
    coin_from_reflectivity,
    evolve,
    generate_phase_map,
    hadamard_coin,
    mode_index,
    position_distribution,
    run_ensemble,
    run_pair_ensemble,
    single_particle_unitary,
    variance,
)

COIN = hadamard_coin()

# Hand-derived: variance after steps 1..8 of the ordered balanced walk
# started at the origin with coin state (1, 0). Steps 1..4 are exact by a
# short amplitude expansion; 5..8 are frozen from the dense-matrix oracle.
ORDERED_VARIANCES = (1.0, 2.0, 2.75, 4.0, 6.734375, 9.6875, 11.90234375, 14.609375)

# Hand-derived step-3 distribution: psi_3 has amplitudes (in units of 8^-1/2)
# 1 at (-3,0), (2,1)+(1,0) at -1, (-1,0)+(0,1)... collapsing to these masses.
STEP3_PROBS = {-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8}


def random_map(p: float, steps: int, seed: int) -> PhaseMap:
    return generate_phase_map(DisorderSpec(p=p, steps=steps, master_seed=seed), 0)


def rows(pm: PhaseMap):
    return phase_rows(pm.codes, pm.alphabet)


def dist_after(states, n, n_max):
    """Dense probability vector over -n_max..n_max after step n."""
    return position_distribution(states[n - 1]).probabilities


class TestOracleSelfChecks:
    """Freeze the oracles before trusting them against the package."""

    def test_dense_oracle_step3_hand_values(self):
        probs = dense_walk(4, COIN, None, 3)[-1]
        for site, expect in STEP3_PROBS.items():
            assert probs[site + 4] == pytest.approx(expect, abs=1e-15)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dense_oracle_ordered_variances(self):
        n_max = 9
        sites = np.arange(-n_max, n_max + 1, dtype=float)
        for n, probs in enumerate(dense_walk(n_max, COIN, None, 8), start=1):
            m1 = sites @ probs
            var = (sites * sites) @ probs - m1 * m1
            assert var == pytest.approx(ORDERED_VARIANCES[n - 1], abs=1e-12)

    def test_path_sum_matches_dense_oracle_on_disordered_map(self):
        pm = random_map(0.6, 5, seed=11)
        probs = dense_walk(6, COIN, rows(pm), 5)[-1]
        by_site = brute_force_positions(5, COIN, rows(pm))
        for site, mass in by_site.items():
            assert probs[site + 6] == pytest.approx(mass, abs=1e-12)
        assert sum(by_site.values()) == pytest.approx(1.0, abs=1e-12)


class TestAgainstOracles:
    def test_step3_distribution(self):
        states = evolve(4, COIN, None, 3)
        dist = position_distribution(states[-1])
        for site, expect in STEP3_PROBS.items():
            assert dist.probabilities[site + 4] == pytest.approx(expect, abs=1e-15)

    def test_ordered_variance_sequence(self):
        states = evolve(8, COIN, None, 8)
        for state, expect in zip(states, ORDERED_VARIANCES):
            assert variance(position_distribution(state)) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("p,seed", [(0.2, 1), (0.5, 2), (1.0, 3), (1.0, 4)])
    def test_evolve_matches_dense_oracle(self, p, seed):
        steps, n_max = 5, 6
        pm = random_map(p, steps, seed)
        states = evolve(n_max, COIN, pm, steps)
        expected = dense_walk(n_max, COIN, rows(pm), steps)
        for n in range(1, steps + 1):
            np.testing.assert_allclose(dist_after(states, n, n_max), expected[n - 1], atol=1e-12)

    def test_evolve_matches_path_sum(self):
        steps = 7
        pm = random_map(0.8, steps, seed=5)
        final = position_distribution(evolve(steps, COIN, pm, steps)[-1])
        by_site = brute_force_positions(steps, COIN, rows(pm))
        for site in range(-steps, steps + 1):
            assert final.probabilities[site + steps] == pytest.approx(
                by_site.get(site, 0.0), abs=1e-12
            )

    def test_map_longer_than_the_lattice_is_cropped(self):
        # An 8-step map on a half-width-4 lattice: rows 1..3 drive 3 steps.
        pm = random_map(0.7, 8, seed=19)
        states = evolve(4, COIN, pm, 3)
        expected = dense_walk(4, COIN, rows(pm)[:3], 3)
        for n in range(1, 4):
            np.testing.assert_allclose(dist_after(states, n, 4), expected[n - 1], atol=1e-12)

    @pytest.mark.parametrize("reflectivity", [0.3, 0.45, 0.7])
    def test_hardware_coin_matches_dense_oracle(self, reflectivity):
        coin = coin_from_reflectivity(reflectivity)
        pm = random_map(1.0, 4, seed=9)
        states = evolve(5, coin, pm, 4)
        expected = dense_walk(5, coin, rows(pm), 4)
        np.testing.assert_allclose(dist_after(states, 4, 5), expected[-1], atol=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_first_three_variances_are_map_independent(self, seed):
        # Any {0, pi} map: phases only start acting on interference terms
        # after step 3, so the early variances match the ordered walk.
        pm = random_map(1.0, 3, seed)
        states = evolve(4, COIN, pm, 3)
        for state, expect in zip(states, (1.0, 2.0, 2.75)):
            assert variance(position_distribution(state)) == pytest.approx(expect, abs=1e-12)

    def test_norm_conserved_each_step(self):
        pm = random_map(0.7, 20, seed=21)
        for state in evolve(20, COIN, pm, 20):
            assert abs(state.norm() - 1.0) <= 1e-12

    def test_light_cone_and_parity_zeros_are_exact(self):
        n_max = 12
        pm = random_map(1.0, 10, seed=3)
        for n, state in enumerate(evolve(n_max, COIN, pm, 10), start=1):
            weights = (np.abs(state.amplitudes) ** 2).sum(axis=1)
            for i, site in enumerate(range(-n_max, n_max + 1)):
                outside = abs(site) > n or (site + n) % 2 == 1
                if outside:
                    assert weights[i] == 0.0

    def test_uniform_pi_row_is_not_a_gauge_transformation(self):
        # A pi on every cell of row 3 moves P(-1) at step 3 from 5/8 to 1/8:
        # per-row uniform phases act only on coin-1 amplitudes and do change
        # the interference pattern.
        codes = np.zeros((3, 7), dtype=np.int8)
        codes[2] = 2  # alphabet letter 1, pi
        pm = PhaseMap(3, codes, (0.0, math.pi), 0.0, 0, "bernoulli")
        dist = position_distribution(evolve(4, COIN, pm, 3)[-1])
        assert dist.probabilities[-1 + 4] == pytest.approx(1 / 8, abs=1e-14)

    def test_all_pi_map_reproduces_ordered_variances(self):
        # pi everywhere is gauge-equivalent to no phases at all, which is
        # why densities p and 1-p of forced flips act alike at the ends.
        codes = np.zeros((8, 17), dtype=np.int8)
        for n in range(1, 9):
            codes[n - 1, 8 - n : 9 + n] = 2  # alphabet letter 1, pi
        pm = PhaseMap(8, codes, (0.0, math.pi), 1.0, 0, "bernoulli")
        for state, expect in zip(evolve(8, COIN, pm, 8), ORDERED_VARIANCES):
            assert variance(position_distribution(state)) == pytest.approx(expect, abs=1e-12)

    @given(
        reflectivity=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_norm_and_cone_hold_for_arbitrary_phase_rows(self, reflectivity, seed, steps):
        # Phases beyond the {0, pi} alphabet: unitarity must not care. Every
        # cell gets its own letter, at most 35 of them.
        coin = coin_from_reflectivity(reflectivity)
        n_cells = steps * (steps + 2)
        alphabet = tuple(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=n_cells))
        codes = np.zeros((steps, 2 * steps + 1), dtype=np.int8)
        for n in range(1, steps + 1):
            codes[n - 1, steps - n : steps + n + 1] = np.arange(n * n, n * n + 2 * n + 1)
        pm = PhaseMap(steps, codes, alphabet, 1.0, 0, "bernoulli")
        states = evolve(steps, coin, pm, steps)
        for state in states:
            assert abs(state.norm() - 1.0) <= 1e-12
        weights = (np.abs(states[-1].amplitudes) ** 2).sum(axis=1)
        for i, site in enumerate(range(-steps, steps + 1)):
            if (site + steps) % 2 == 1:
                assert weights[i] == 0.0


class TestModeUnitary:
    def test_unitarity(self):
        pm = random_map(1.0, 5, seed=17)
        u = single_particle_unitary(5, COIN, pm, 5)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-10)

    def test_zero_steps_is_identity(self):
        u = single_particle_unitary(3, COIN, None, 0)
        np.testing.assert_array_equal(u, np.eye(14))

    def test_central_column_matches_evolve(self):
        steps, n_max = 4, 6
        pm = random_map(0.9, steps, seed=23)
        u = single_particle_unitary(n_max, COIN, pm, steps)
        col = u[:, mode_index(0, 0, n_max)]
        final = evolve(n_max, COIN, pm, steps)[-1]
        # mode_index(site, c) is 2 * (site + n_max) + c, the amplitude layout
        np.testing.assert_array_equal(col.reshape(-1, 2), final.amplitudes)

    def test_every_column_matches_the_periodic_dense_product(self):
        # steps > n_max, so every column wraps around the ring; (0, 1, 2) rad
        # phases and an unbalanced coin leave no symmetry to hide a wrong edge.
        n_max, steps = 3, 6
        coin = coin_from_reflectivity(0.45)
        spec = DisorderSpec(p=0.8, steps=steps, alphabet=(0.0, 1.0, 2.0), master_seed=31)
        pm = generate_phase_map(spec, 0)
        expect = np.eye(2 * (2 * n_max + 1), dtype=complex)
        for n in range(1, steps + 1):
            expect = dense_step_matrix(n_max, coin, rows(pm)[n - 1], n, periodic=True) @ expect
        u = single_particle_unitary(n_max, coin, pm, steps)
        np.testing.assert_allclose(u, expect, rtol=0, atol=1e-12)

    def test_mode_index_validation(self):
        assert mode_index(-2, 1, 2) == 1
        with pytest.raises(DomainError):
            mode_index(0, 2, 3)
        with pytest.raises(DomainError):
            mode_index(4, 0, 3)


class TestValidation:
    def test_steps_beyond_lattice_raise(self):
        with pytest.raises(CapacityError):
            evolve(3, COIN, None, 4)

    @pytest.mark.parametrize(
        "coin",
        [
            np.array([[1.0, 0.0], [0.0, 0.5]]),
            # ||C^dagger C - I|| = 8e-6: inside numpy's default rtol of 1e-5,
            # far outside the documented 1e-12.
            hadamard_coin() * (1 + 4e-6),
        ],
        ids=["contracting", "off-by-8e-6"],
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda coin: evolve(3, coin, None, 2),
            lambda coin: single_particle_unitary(3, coin, None, 2),
            lambda coin: run_ensemble(DisorderSpec(p=0.5, steps=4), coin, 3),
            lambda coin: run_pair_ensemble(DisorderSpec(p=0.5, steps=4), coin, 3, eta=1.0),
        ],
        ids=["evolve", "single_particle_unitary", "run_ensemble", "run_pair_ensemble"],
    )
    def test_nonunitary_coin_rejected(self, run, coin):
        with pytest.raises(DomainError, match="unitary"):
            run(coin)

    def test_short_phase_map_rejected(self):
        pm = random_map(0.5, 2, seed=1)
        with pytest.raises(DomainError):
            evolve(5, COIN, pm, 4)
        with pytest.raises(DomainError):
            single_particle_unitary(5, COIN, pm, 4)

    def test_reflectivity_range_checked(self):
        with pytest.raises(DomainError):
            coin_from_reflectivity(1.2)
        np.testing.assert_allclose(coin_from_reflectivity(0.5), COIN, atol=1e-15)

"""Single-walker dynamics against independent oracles and hand values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_positions, dense_step_matrix, dense_walk
from pdqw import (
    CapacityError,
    DisorderSpec,
    DomainError,
    PhaseMap,
    WalkState,
    coin_from_reflectivity,
    evolve,
    generate_phase_map,
    hadamard_coin,
    initial_state,
    mode_index,
    position_distribution,
    single_particle_unitary,
    variance,
    zero_map,
)
from pdqw.walk_core import apply_step

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
        probs = dense_walk(6, COIN, pm.rows, 5)[-1]
        by_site = brute_force_positions(5, COIN, pm.rows)
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
        expected = dense_walk(n_max, COIN, pm.rows, steps)
        for n in range(1, steps + 1):
            np.testing.assert_allclose(dist_after(states, n, n_max), expected[n - 1], atol=1e-12)

    def test_evolve_matches_path_sum(self):
        steps = 7
        pm = random_map(0.8, steps, seed=5)
        final = position_distribution(evolve(steps, COIN, pm, steps)[-1])
        by_site = brute_force_positions(steps, COIN, pm.rows)
        for site in range(-steps, steps + 1):
            assert final.probabilities[site + steps] == pytest.approx(
                by_site.get(site, 0.0), abs=1e-12
            )

    @pytest.mark.parametrize("reflectivity", [0.3, 0.45, 0.7])
    def test_hardware_coin_matches_dense_oracle(self, reflectivity):
        coin = coin_from_reflectivity(reflectivity)
        pm = random_map(1.0, 4, seed=9)
        states = evolve(5, coin, pm, 4)
        expected = dense_walk(5, coin, pm.rows, 4)
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

    def test_global_phase_on_state_is_invisible(self):
        pm = random_map(1.0, 6, seed=13)
        base = initial_state(7)
        rotated = WalkState(7, base.amplitudes * np.exp(1j * 0.9))
        d1 = position_distribution(evolve(7, COIN, pm, 6)[-1])
        d2 = position_distribution(evolve(7, COIN, pm, 6, start=rotated)[-1])
        np.testing.assert_allclose(d1.probabilities, d2.probabilities, atol=1e-14)

    def test_uniform_pi_row_is_not_a_gauge_transformation(self):
        # A pi on every cell of row 3 moves P(-1) at step 3 from 5/8 to 1/8:
        # per-row uniform phases act only on coin-1 amplitudes and do change
        # the interference pattern.
        rows = (np.zeros(3), np.zeros(5), np.full(7, math.pi))
        pm = PhaseMap(3, rows, (0.0, math.pi), 0.0, 0, "bernoulli")
        dist = position_distribution(evolve(4, COIN, pm, 3)[-1])
        assert dist.probabilities[-1 + 4] == pytest.approx(1 / 8, abs=1e-14)

    def test_all_pi_map_reproduces_ordered_variances(self):
        # pi everywhere is gauge-equivalent to no phases at all, which is
        # why densities p and 1-p of forced flips act alike at the ends.
        rows = tuple(np.full(2 * n + 1, math.pi) for n in range(1, 9))
        pm = PhaseMap(8, rows, (0.0, math.pi), 1.0, 0, "bernoulli")
        for state, expect in zip(evolve(8, COIN, pm, 8), ORDERED_VARIANCES):
            assert variance(position_distribution(state)) == pytest.approx(expect, abs=1e-12)

    @given(
        reflectivity=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_norm_and_cone_hold_for_arbitrary_phase_rows(self, reflectivity, seed, steps):
        # Phases beyond the {0, pi} alphabet: unitarity must not care.
        coin = coin_from_reflectivity(reflectivity)
        rng = np.random.default_rng(seed)
        state = initial_state(steps)
        for n in range(1, steps + 1):
            row = rng.uniform(0.0, 2.0 * math.pi, size=2 * n + 1)
            state = apply_step(state, coin, row, n)
            assert abs(state.norm() - 1.0) <= 1e-12
        weights = (np.abs(state.amplitudes) ** 2).sum(axis=1)
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
        for site in range(-n_max, n_max + 1):
            for c in (0, 1):
                assert col[mode_index(site, c, n_max)] == pytest.approx(
                    final.amplitudes[site + n_max, c], abs=1e-12
                )

    def test_every_column_matches_the_periodic_dense_product(self):
        # steps > n_max, so every column wraps around the ring; (0, 1, 2) rad
        # phases and an unbalanced coin leave no symmetry to hide a wrong edge.
        n_max, steps = 3, 6
        coin = coin_from_reflectivity(0.45)
        spec = DisorderSpec(p=0.8, steps=steps, alphabet=(0.0, 1.0, 2.0), master_seed=31)
        pm = generate_phase_map(spec, 0)
        expect = np.eye(2 * (2 * n_max + 1), dtype=complex)
        for n in range(1, steps + 1):
            expect = dense_step_matrix(n_max, coin, pm.rows[n - 1], n, periodic=True) @ expect
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

    def test_nonunitary_coin_rejected(self):
        with pytest.raises(DomainError):
            evolve(3, np.array([[1.0, 0.0], [0.0, 0.5]]), None, 2)

    def test_bad_phase_row_length(self):
        with pytest.raises(DomainError):
            apply_step(initial_state(3), COIN, np.zeros(4), 1)

    def test_short_phase_map_rejected(self):
        with pytest.raises(DomainError):
            evolve(5, COIN, zero_map(2), 4)

    def test_unnormalized_start_rejected(self):
        with pytest.raises(DomainError):
            initial_state(3, coin_amplitudes=(1.0, 1.0))

    def test_reflectivity_range_checked(self):
        with pytest.raises(DomainError):
            coin_from_reflectivity(1.2)
        np.testing.assert_allclose(coin_from_reflectivity(0.5), COIN, atol=1e-15)

"""Single-walker dynamics against independent oracles and hand values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_positions, dense_step_matrix, dense_unitary, dense_walk, mode, phase_rows
from pdqw import (
    CapacityError,
    DisorderSpec,
    DomainError,
    PhaseMap,
    coin_from_reflectivity,
    evolve,
    generate_phase_map,
    hadamard_coin,
    hom_scan,
    position_distribution,
    run_ensemble,
    run_pair_ensemble,
    variance,
)
from pdqw.disorder import DEFAULT_ALPHABET, phase_factors
from pdqw.walk_core import _site_sums, _step, _walk, _walk_operands, walked_cells, window

COIN = hadamard_coin()
QUARTER_TURNS = (0.0, 0.5 * math.pi, math.pi)

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

    def test_dense_unitary_is_unitary_and_walks_as_the_dense_oracle(self):
        # Inside the lattice the ring's edge is never reached, so the
        # origin's coin-0 column walks as dense_walk does.
        pm = random_map(0.8, 5, seed=13)
        u = dense_unitary(5, COIN, rows(pm), 5)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), rtol=0, atol=1e-12)
        column = np.abs(u[:, 2 * 5]) ** 2
        np.testing.assert_allclose(column[0::2] + column[1::2], dense_walk(5, COIN, rows(pm), 5)[-1],
                                   rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, QUARTER_TURNS], ids=["float64", "complex128"])
class TestWindowedDriver:
    """_walk steps only the light cone of the origin: after each step its
    amplitudes on the window are the periodic dense product's, and the
    dense product has nothing outside the window."""

    COIN = coin_from_reflectivity(0.45)

    @pytest.mark.parametrize("n_max, steps", [(5, 5), (7, 4)], ids=["origin", "inside-the-lattice"])
    def test_matches_the_periodic_dense_product(self, alphabet, n_max, steps):
        spec = DisorderSpec(p=0.8, steps=steps, alphabet=alphabet, master_seed=29)
        pm = generate_phase_map(spec, 0)
        coin, table = _walk_operands(self.COIN, alphabet)
        assert coin.dtype == (np.float64 if alphabet == DEFAULT_ALPHABET else np.complex128)
        n_sites = 2 * n_max + 1
        # Column j starts in coin j at the origin, as the pair scan's photons.
        psi = np.zeros((2, 1, 2), dtype=coin.dtype)
        psi[[0, 1], 0, [0, 1]] = 1.0
        dense = np.eye(2 * n_sites, dtype=complex)[:, [mode(0, 0, n_max), mode(0, 1, n_max)]]
        codes = pm.codes[walked_cells(pm.steps, steps)][:, None]
        for n, (psi0, psi1) in enumerate(_walk(*psi, coin, codes, table, steps), start=1):
            dense = dense_step_matrix(n_max, self.COIN, rows(pm)[n - 1], n, periodic=True) @ dense
            by_site = dense.reshape(n_sites, 2, 2).copy()
            at = window(n_max, n)
            assert psi0.dtype == coin.dtype
            np.testing.assert_allclose(psi0, by_site[at, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(psi1, by_site[at, 1], rtol=0, atol=1e-12)
            by_site[at] = 0.0
            assert not by_site.any()
        assert n == steps

    def test_evolve_is_the_driver_scattered_on_zeros(self, alphabet):
        n_max, steps = 7, 6
        pm = generate_phase_map(DisorderSpec(p=0.9, steps=steps, alphabet=alphabet, master_seed=3), 0)
        coin, table = _walk_operands(self.COIN, alphabet)
        walk = _walk(np.ones(1, coin.dtype), np.zeros(1, coin.dtype), coin,
                     pm.codes[walked_cells(pm.steps, steps)], table, steps)
        for n, (state, psi) in enumerate(zip(evolve(n_max, self.COIN, pm, steps), walk), start=1):
            at = window(n_max, n)
            assert list(range(-n_max, n_max + 1)[at]) == list(range(-n, n + 1, 2))
            amplitudes = state.amplitudes.copy()
            assert np.array_equal(amplitudes[at], np.stack(psi, axis=1))
            amplitudes[at] = 0.0
            assert not amplitudes.any()

    def test_a_step_holds_until_the_walk_advances_twice(self, alphabet):
        steps = 6
        pm = generate_phase_map(DisorderSpec(p=0.7, steps=steps, alphabet=alphabet, master_seed=5), 0)
        coin, table = _walk_operands(self.COIN, alphabet)
        psi = np.ones((1, 3), coin.dtype), np.zeros((1, 3), coin.dtype)
        codes = pm.codes[walked_cells(pm.steps, steps)][:, None]
        held = None
        for step in _walk(*psi, coin, codes, table, steps):
            if held is not None:
                assert all(np.array_equal(a, b) for a, b in zip(*held))
            held = step, [a.copy() for a in step]


class TestStep:
    PHASE_COIN = np.diag([1, 1j]) @ hadamard_coin()

    @pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("coin", [coin_from_reflectivity(0.45), PHASE_COIN], ids=["real", "complex"])
    def test_mixes_and_shifts_as_the_expression_rounds(self, coin, batch):
        rng = np.random.default_rng(3)
        psi0, b1 = (rng.standard_normal((6, *batch)) + 1j * rng.standard_normal((6, *batch)) for _ in range(2))
        zero = np.zeros((1, *batch))
        want0 = np.concatenate([coin[0, 0] * psi0 + coin[0, 1] * b1, zero])
        want1 = np.concatenate([zero, coin[1, 0] * psi0 + coin[1, 1] * b1])
        out0, out1 = np.zeros((2, 7, *batch), dtype=complex)
        _step(psi0, b1, *coin.ravel(), out0[:6], out1[1:])
        assert np.array_equal(out0, want0) and np.array_equal(out1, want1)


class TestSiteSums:
    @pytest.mark.parametrize("batch", [(1,), (2,), (3,), (8,), (384,), (2, 1), (2, 5), (1, 1)])
    def test_sites_add_left_to_right_for_any_batch(self, batch):
        # numpy drops a batch of one element and sums the rest pairwise.
        for seed in range(20):
            a = np.random.default_rng(seed).random((21, *batch))
            total = a[0].copy()
            for row in a[1:]:
                total += row
            got = _site_sums(a)
            assert got.shape == total.shape
            assert np.array_equal(got, total)

    def test_walked_cells_of_the_walk_from_the_origin(self, steps=6, centre=6):
        rows, cols = walked_cells(centre, steps)
        assert rows.dtype == cols.dtype == np.intp
        assert len(rows) == len(cols) == steps * (steps + 1) // 2
        assert list(rows) == sorted(rows)
        for n in range(1, steps + 1):
            # step n reads row n - 1 at the sites of the window after n - 1 steps
            assert list(cols[rows == n - 1] - centre) == list(range(-(n - 1), n, 2))

    def test_walked_cells_move_with_their_centre(self):
        # evolve reads its plane with the origin in column n_max > steps.
        self.test_walked_cells_of_the_walk_from_the_origin(steps=4, centre=9)

    def test_a_walk_of_no_steps_reads_no_cell(self):
        rows, cols = walked_cells(3, 0)
        assert rows.size == cols.size == 0


class TestWalkOperands:
    PHASE_COIN = np.diag([1, 1j]) @ hadamard_coin()

    @pytest.mark.parametrize("alphabet", [(0.0, math.pi), (math.pi,), ()])
    @pytest.mark.parametrize("coin", [coin_from_reflectivity(0.5), coin_from_reflectivity(0.45),
                                      hadamard_coin()])
    def test_real_coin_and_factors_walk_in_float64(self, coin, alphabet):
        c, table = _walk_operands(coin, alphabet)
        assert c.dtype == table.dtype == np.float64
        assert np.array_equal(c, coin.real)
        assert np.array_equal(table, phase_factors(alphabet).real)

    @pytest.mark.parametrize("coin, alphabet", [
        (COIN, (0.0, 0.5 * math.pi, math.pi)),
        (COIN, (0.0, 0.25 * math.pi)),
        (PHASE_COIN, (0.0, math.pi)),
        (PHASE_COIN, ()),
    ])
    def test_any_imaginary_part_keeps_complex128(self, coin, alphabet):
        c, table = _walk_operands(coin, alphabet)
        assert c.dtype == table.dtype == np.complex128
        assert np.array_equal(c, coin)
        assert np.array_equal(table, phase_factors(alphabet))

    def test_public_results_stay_complex(self):
        pm = random_map(0.7, 4, seed=3)
        assert evolve(5, COIN, pm, 4)[-1].amplitudes.dtype == np.complex128


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
            lambda coin: hom_scan([0.0], 1.0, 0.9, coin),
            lambda coin: run_ensemble(DisorderSpec(p=0.5, steps=4), coin, 3),
            lambda coin: run_pair_ensemble(DisorderSpec(p=0.5, steps=4), coin, 3, eta=1.0),
        ],
        ids=["evolve", "hom_scan", "run_ensemble", "run_pair_ensemble"],
    )
    def test_nonunitary_coin_rejected(self, run, coin):
        with pytest.raises(DomainError, match="unitary"):
            run(coin)

    def test_short_phase_map_rejected(self):
        pm = random_map(0.5, 2, seed=1)
        with pytest.raises(DomainError):
            evolve(5, COIN, pm, 4)

    def test_reflectivity_range_checked(self):
        with pytest.raises(DomainError):
            coin_from_reflectivity(1.2)
        np.testing.assert_allclose(coin_from_reflectivity(0.5), COIN, atol=1e-15)

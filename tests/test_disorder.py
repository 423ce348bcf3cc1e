"""Phase-map generation, sampling statistics, and the text file format."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqw import (
    DisorderSpec,
    DomainError,
    MapParseError,
    PhaseMap,
    generate_phase_map,
    load_map,
    realized_fraction,
    save_map,
)
from oracles import cone_rows, phase_rows, reference_phase_map
import pdqw.disorder
from pdqw.disorder import (
    DEFAULT_ALPHABET,
    MAX_ALPHABET,
    SAMPLING_MODES,
    check_alphabet,
    _draw_codes,
    _DrawCache,
    _pcg64_states,
    map_seed,
    map_seeds,
    sample_block,
)
from pdqw.ensemble import CHUNK_SIZE, similarity_scan
from pdqw.walk_core import hadamard_coin

# Frozen outputs of the seed derivation and the draw order. These pin the
# on-disk compatibility contract: a change here silently invalidates every
# previously saved map header.
FROZEN_SEEDS = {(1, 0): 8431846347943309920, (1, 1): 4042681867674859579, (7, 3): 6823953754371609207}
FROZEN_FIRST_MAP = {
    "seed": 16138347438539916964,
    "rows_pi_units": ([0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0]),
    "mask": ([1, 1, 1], [0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 0, 1]),
}


def marks(pm: PhaseMap):
    """Which cells of each row were marked, read off the code plane."""
    return cone_rows(pm.codes > 0)


class TestGeneration:
    def test_seed_derivation_is_frozen(self):
        for (master, idx), expect in FROZEN_SEEDS.items():
            assert map_seed(master, idx) == expect

    def test_draw_order_is_frozen(self):
        pm = generate_phase_map(DisorderSpec(p=0.5, steps=3, master_seed=42), 0)
        assert pm.seed == FROZEN_FIRST_MAP["seed"]
        for row, expect in zip(phase_rows(pm.codes, pm.alphabet), FROZEN_FIRST_MAP["rows_pi_units"]):
            np.testing.assert_array_equal(row, np.asarray(expect, dtype=float) * math.pi)
        for got, expect in zip(marks(pm), FROZEN_FIRST_MAP["mask"]):
            np.testing.assert_array_equal(got, np.asarray(expect, dtype=bool))

    def test_same_spec_same_index_regenerates_identically(self):
        spec = DisorderSpec(p=0.3, steps=6, master_seed=9)
        assert generate_phase_map(spec, 4) == generate_phase_map(spec, 4)

    def test_distinct_indices_give_distinct_maps(self):
        spec = DisorderSpec(p=1.0, steps=6, master_seed=9)
        seeds = {generate_phase_map(spec, k).seed for k in range(50)}
        assert len(seeds) == 50

    def test_code_plane_shape_and_cell_count(self):
        pm = generate_phase_map(DisorderSpec(p=1.0, steps=7, master_seed=0), 0)
        assert pm.codes.shape == (7, 15)
        assert pm.codes.dtype == np.int8
        assert pm.n_cells == 63 == int((pm.codes > 0).sum())

    @pytest.mark.parametrize("seed", range(4))
    def test_alphabet_closure(self, seed):
        pm = generate_phase_map(DisorderSpec(p=1.0, steps=8, master_seed=seed), 0)
        assert set(np.unique(pm.codes)) <= {0, 1, 2}
        for row in phase_rows(pm.codes, pm.alphabet):
            assert all(v in (0.0, math.pi) for v in row)

    def test_p0_is_the_zero_map(self):
        pm = generate_phase_map(DisorderSpec(p=0.0, steps=5, master_seed=1), 0)
        assert not pm.codes.any()
        assert realized_fraction(pm) == 0.0

    def test_p1_marks_every_cell(self):
        pm = generate_phase_map(DisorderSpec(p=1.0, steps=5, master_seed=1), 0)
        assert realized_fraction(pm) == 1.0

    @pytest.mark.parametrize(
        "p,steps",
        [(0.2, 7), (1 / 3, 5), (0.1, 9), (0.5, 2), (0.999, 4)],
    )
    def test_exact_fraction_count(self, p, steps):
        spec = DisorderSpec(p=p, steps=steps, sampling_mode="exact_fraction", master_seed=3)
        pm = generate_phase_map(spec, 0)
        assert int((pm.codes > 0).sum()) == int(Fraction(p) * pm.n_cells)

    def test_bernoulli_calibration_three_sigma(self):
        # steps=100 -> 10200 cells, comfortably past the 1e4 bar.
        p = 0.1
        spec = DisorderSpec(p=p, steps=100, master_seed=2024)
        pm = generate_phase_map(spec, 0)
        sigma = math.sqrt(p * (1 - p) / pm.n_cells)
        assert abs(realized_fraction(pm) - p) <= 3 * sigma

    def test_marks_known_not_part_of_equality(self):
        pm = generate_phase_map(DisorderSpec(p=0.4, steps=4, master_seed=5), 0)
        stripped = PhaseMap(
            pm.steps, pm.codes, pm.alphabet, pm.p_nominal, pm.seed, pm.sampling_mode, marks_known=False
        )
        assert pm == stripped
        with pytest.raises(DomainError, match="mask unavailable"):
            realized_fraction(stripped)


class TestBlockSampler:
    # Spawn keys of one and two words, and master seeds at the word edges.
    MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    INDICES = [0, 127, 128, 2**32 - 1, 2**32]

    @staticmethod
    def numpy_seed(master, index):
        ss = np.random.SeedSequence(master, spawn_key=(index,))
        return int(ss.generate_state(1, np.uint64)[0])

    @pytest.mark.parametrize("master", MASTERS)
    def test_seeds_match_numpy_seed_sequence(self, master):
        for k in self.INDICES:
            assert map_seed(master, k) == self.numpy_seed(master, k)
        # one block holding both key widths
        block = map_seeds(master, 2**32 - 2, 2**32 + 2)
        assert block.dtype == np.uint64
        assert block.tolist() == [self.numpy_seed(master, k) for k in range(2**32 - 2, 2**32 + 2)]

    @pytest.mark.parametrize("master", MASTERS)
    def test_pcg64_states_match_default_rng(self, master):
        # derived seeds (all above 2**32 here) plus seeds below and at 2**32
        seeds = [map_seed(master, k) for k in self.INDICES] + [0, 1, 2**32 - 1, 2**32, master]
        states = _pcg64_states(np.array(seeds, dtype=np.uint64))
        for seed, (state, inc) in zip(seeds, states):
            expect = np.random.default_rng(seed).bit_generator.state["state"]
            assert (state, inc) == (expect["state"], expect["inc"])

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    @pytest.mark.parametrize(
        "alphabet", [(math.pi,), DEFAULT_ALPHABET, (0.0, 0.5 * math.pi, math.pi)]
    )
    def test_block_matches_per_map_generation(self, mode, alphabet):
        steps = 4
        spec = DisorderSpec(p=0.3, steps=steps, alphabet=alphabet, sampling_mode=mode, master_seed=12)
        codes = sample_block(spec, 0, CHUNK_SIZE + 3)
        assert codes.dtype == np.int8
        assert codes.shape == (CHUNK_SIZE + 3, steps, 2 * steps + 1)
        np.testing.assert_array_equal(sample_block(spec, CHUNK_SIZE, CHUNK_SIZE + 3), codes[CHUNK_SIZE:])
        for k in range(CHUNK_SIZE + 3):
            pm = generate_phase_map(spec, k)
            seed, ref_rows, ref_mask = reference_phase_map(12, k, steps, 0.3, alphabet, mode)
            assert pm.seed == seed
            np.testing.assert_array_equal(pm.codes, codes[k])
            for n in range(1, steps + 1):
                np.testing.assert_array_equal(phase_rows(pm.codes, alphabet)[n - 1], ref_rows[n - 1])
                np.testing.assert_array_equal(marks(pm)[n - 1], ref_mask[n - 1])
                assert not codes[k, n - 1, : steps - n].any()
                assert not codes[k, n - 1, steps + n + 1 :].any()


@pytest.fixture
def draw_cache(monkeypatch):
    """A fresh, empty cache in place of the process-wide one."""
    cache = _DrawCache(budget=1 << 24)
    monkeypatch.setattr(pdqw.disorder, "_draws", cache)
    return cache


def assert_codes_match_reference(codes, master, start, steps, p, alphabet):
    for i, plane in enumerate(codes):
        _, ref_rows, ref_mask = reference_phase_map(master, start + i, steps, p, alphabet, "bernoulli")
        got_rows = phase_rows(plane, alphabet)
        got_marks = cone_rows(plane > 0)
        for n in range(1, steps + 1):
            np.testing.assert_array_equal(got_rows[n - 1], ref_rows[n - 1])
            np.testing.assert_array_equal(got_marks[n - 1], ref_mask[n - 1])
            assert not plane[n - 1, : steps - n].any()
            assert not plane[n - 1, steps + n + 1 :].any()


class TestDrawCache:
    P_GRID = [0.0, 0.3, 0.5, 1.0]

    @pytest.mark.parametrize(
        "alphabet", [(math.pi,), DEFAULT_ALPHABET, (0.0, 0.5 * math.pi, math.pi)]
    )
    def test_warm_blocks_match_the_reference_at_every_p(self, draw_cache, alphabet):
        steps = 4
        chunks = [(0, CHUNK_SIZE), (CHUNK_SIZE, CHUNK_SIZE + 3)]
        for p in [0.7, *self.P_GRID]:
            spec = DisorderSpec(p=p, steps=steps, alphabet=alphabet, master_seed=12)
            for start, stop in chunks:
                codes = sample_block(spec, start, stop)
                if p != 0.7:  # the first p only warms the cache
                    assert_codes_match_reference(codes, 12, start, steps, p, alphabet)
        assert draw_cache.misses == len(chunks)

    def test_master_seeds_at_the_word_edges(self, draw_cache):
        # one cache for both seeds, so each must key its own blocks
        for master in (2**32 - 1, 2**64 - 1):
            for p in self.P_GRID:
                spec = DisorderSpec(p=p, steps=3, master_seed=master)
                assert_codes_match_reference(sample_block(spec, 5, 9), master, 5, 3, p, DEFAULT_ALPHABET)
        assert draw_cache.misses == 2

    def test_alphabets_of_one_size_share_draws(self, draw_cache):
        a = DisorderSpec(p=0.4, steps=5, alphabet=(0.0, math.pi), master_seed=3)
        b = DisorderSpec(p=0.6, steps=5, alphabet=(0.25 * math.pi, 1.5 * math.pi), master_seed=3)
        c = DisorderSpec(p=0.6, steps=5, alphabet=(0.0, 1.0, 2.0), master_seed=3)
        codes_a = sample_block(a, 0, 10)
        codes_b = sample_block(b, 0, 10)
        assert draw_cache.misses == 1
        # b marks a superset of a's cells, with the same letters
        np.testing.assert_array_equal(codes_b[codes_a > 0], codes_a[codes_a > 0])
        assert_codes_match_reference(codes_b, 3, 0, 5, 0.6, b.alphabet)
        sample_block(c, 0, 10)
        assert draw_cache.misses == 2

    def test_cached_arrays_are_read_only(self, draw_cache):
        uniforms, letters = draw_cache.get(3, 2, 1, 0, 4)
        with pytest.raises(ValueError):
            uniforms[0, 0] = 0.0
        with pytest.raises(ValueError):
            letters[0, 0] = 1
        assert draw_cache.get(3, 2, 1, 0, 4)[0] is uniforms

    def test_exact_fraction_never_enters_the_cache(self, draw_cache):
        for p in self.P_GRID:
            spec = DisorderSpec(p=p, steps=4, sampling_mode="exact_fraction", master_seed=2)
            sample_block(spec, 0, CHUNK_SIZE + 3)
        assert draw_cache.misses == 0
        assert draw_cache.nbytes == 0

    def test_a_scan_draws_each_chunk_once(self, draw_cache):
        p_grid = [0.0, 0.1, 0.2, 0.4, 0.8]
        similarity_scan(p_grid, 3, CHUNK_SIZE + 3, hadamard_coin(), master_seed=8)
        # len(p_grid) + 1 ensembles (the p = 1 reference), two chunks each
        assert draw_cache.misses == 2

    def test_budget_bounds_the_held_bytes(self):
        block = 10 * 3 * 5 * 9  # 10 maps of 15 cells, float64 uniforms and int8 letters
        cache = _DrawCache(budget=2 * block + block // 2)
        for start in (0, 10, 20, 0):
            cache.get(3, 2, 1, start, start + 10)
            assert cache.nbytes <= cache.budget
        assert cache.misses == 4  # block 0 was evicted by block 20
        cache.get(3, 2, 1, 20, 30)
        assert cache.misses == 4
        big = _DrawCache(budget=block - 1)
        big.get(3, 2, 1, 0, 10)
        assert big.nbytes == 0

    @settings(max_examples=40, deadline=None)
    @given(
        master=st.integers(0, 2**64 - 1),
        steps=st.integers(1, 8),
        n_letters=st.integers(1, 4),
        p=st.floats(0.0, 1.0),
        maps=st.integers(1, 300),
    )
    def test_cached_codes_equal_a_fresh_draw(self, master, steps, n_letters, p, maps):
        spec = DisorderSpec(p=p, steps=steps, alphabet=range(n_letters), master_seed=master)
        fresh = _draw_codes(steps, p, n_letters, "bernoulli", map_seeds(master, 0, maps))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pdqw.disorder, "_draws", _DrawCache(budget=1 << 24))
            cold = sample_block(spec, 0, maps)
            warm = sample_block(spec, 0, maps)
        np.testing.assert_array_equal(cold, fresh)
        np.testing.assert_array_equal(warm, fresh)


class TestSpecValidation:
    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_p_range(self, p):
        with pytest.raises(DomainError):
            DisorderSpec(p=p, steps=3)

    def test_steps_positive(self):
        with pytest.raises(DomainError):
            DisorderSpec(p=0.5, steps=0)

    def test_sampling_mode_checked(self):
        with pytest.raises(DomainError):
            DisorderSpec(p=0.5, steps=3, sampling_mode="sobol")

    @pytest.mark.parametrize("size", [0, MAX_ALPHABET + 1])
    def test_alphabet_size(self, size):
        with pytest.raises(DomainError):
            DisorderSpec(p=0.5, steps=3, alphabet=(0.0,) * size)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_alphabet_phases_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            DisorderSpec(p=0.5, steps=3, alphabet=(0.0, bad))
        with pytest.raises(DomainError, match="finite"):
            check_alphabet([bad])

    def test_master_seed_64_bits(self):
        with pytest.raises(DomainError):
            DisorderSpec(p=0.5, steps=3, master_seed=2**64)

    def test_negative_map_index(self):
        with pytest.raises(DomainError):
            generate_phase_map(DisorderSpec(p=0.5, steps=3), -1)

    def test_bad_code_plane_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            PhaseMap(2, np.zeros((2, 4)), (0.0,), 0.0, 0, "bernoulli")
        for codes in ([[0, 2, 0]], [[0, 257, 0]], [[0, 0.5, 0]]):
            with pytest.raises(DomainError, match="codes"):
                PhaseMap(1, codes, (0.0,), 0.0, 0, "bernoulli")


class TestFileFormat:
    def test_round_trip_equality_and_mask(self, tmp_path):
        pm = generate_phase_map(DisorderSpec(p=0.35, steps=7, master_seed=77), 2)
        path = tmp_path / "map.txt"
        save_map(pm, path)
        back = load_map(path)
        assert back == pm
        assert back.marks_known
        assert realized_fraction(back) == realized_fraction(pm)

    @pytest.mark.parametrize(
        "alphabet",
        [(0.0, 0.5 * math.pi, math.pi), (0.25 * math.pi, 1.5 * math.pi), (math.pi,)],
        ids=["0,0.5,1", "0.25,1.5", "1"],
    )
    def test_round_trip_of_alphabets_beyond_0_and_pi(self, tmp_path, alphabet):
        # Fractional pi multiples, and alphabets without the unmarked phase 0.
        pm = generate_phase_map(DisorderSpec(p=0.7, steps=6, alphabet=alphabet, master_seed=5), 1)
        path = tmp_path / "map.txt"
        save_map(pm, path)
        back = load_map(path)
        assert back == pm
        assert back.marks_known
        np.testing.assert_array_equal(back.codes, pm.codes)

    def test_round_trip_of_a_numpy_p(self, tmp_path):
        # p taken from a numpy grid must be written as a plain number.
        spec = DisorderSpec(p=np.linspace(0.0, 1.0, 3)[1], steps=4, master_seed=9)
        assert type(spec.p) is float
        pm = generate_phase_map(spec, 0)
        path = tmp_path / "map.txt"
        save_map(pm, path)
        assert "p=0.5\n" in path.read_text()
        back = load_map(path)
        assert back == pm
        assert back.marks_known

    def test_round_trip_is_byte_stable(self, tmp_path):
        pm = generate_phase_map(
            DisorderSpec(p=0.6, steps=5, sampling_mode="exact_fraction", master_seed=8), 0
        )
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        save_map(pm, first)
        save_map(load_map(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_format(self, tmp_path):
        pm = generate_phase_map(DisorderSpec(p=0.25, steps=2, master_seed=4), 0)
        path = tmp_path / "map.txt"
        save_map(pm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "steps=2"
        assert lines[1] == "p=0.25"
        assert lines[2] == f"seed={pm.seed}"
        assert lines[3] == "mode=bernoulli"
        assert lines[4] == "alphabet=0,pi"
        assert len(lines) == 7

    def test_hand_made_file_parses_but_has_no_mask(self, tmp_path):
        path = tmp_path / "edited.txt"
        path.write_text(
            "steps=2\np=0.5\nseed=123\nmode=bernoulli\nalphabet=0,pi\n1 0 1\n0 1 0 1 0\n"
        )
        pm = load_map(path)
        np.testing.assert_array_equal(phase_rows(pm.codes, pm.alphabet)[0], [math.pi, 0.0, math.pi])
        assert not pm.marks_known
        with pytest.raises(DomainError, match="mask unavailable"):
            realized_fraction(pm)

    def test_near_alphabet_entries_snap_exactly(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "steps=1\np=0\nseed=0\nmode=bernoulli\nalphabet=0,pi\n0.9999999999 0 1e-11\n"
        )
        pm = load_map(path)
        np.testing.assert_array_equal(phase_rows(pm.codes, pm.alphabet)[0], [math.pi, 0.0, 0.0])

    @pytest.mark.parametrize(
        "text,line",
        [
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\n", 5),
            ("steps=x\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\n", 1),
            ("steps=2\np=1.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\n", 2),
            ("steps=2\np=0.5\nseed=q\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\n", 3),
            ("steps=2\np=0.5\nseed=-1\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\n", 3),
            (f"steps=2\np=0.5\nseed={2**64}\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\n", 3),
            ("steps=2\np=0.5\nseed=1\nmode=latin\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\n", 4),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,tau\n0 0 0\n0 0 0 0 0\n", 5),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=nan\n0 0 0\n0 0 0 0 0\n", 5),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,-inf\n0 0 0\n0 0 0 0 0\n", 5),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=\n0 0 0\n0 0 0 0 0\n", 5),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=" + ",".join(["0"] * 128)
             + "\n0 0 0\n0 0 0 0 0\n", 5),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0\n0 0 0 0 0\n", 6),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 z 0\n0 0 0 0 0\n", 6),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0.5 0\n0 0 0 0 0\n", 6),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 nan 0\n0 0 0 0 0\n", 6),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 \u00e9 0 0\n", 7),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\njunk\n", 8),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MapParseError) as err:
            load_map(path)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}:")

    def test_wrong_header_order_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p=0.5\nsteps=2\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 0 0 0 0\n")
        with pytest.raises(MapParseError) as err:
            load_map(path)
        assert err.value.line == 1

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        steps=st.integers(min_value=1, max_value=8),
        master_seed=st.integers(min_value=0, max_value=2**63),
        mode=st.sampled_from(["bernoulli", "exact_fraction"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, p, steps, master_seed, mode):
        pm = generate_phase_map(
            DisorderSpec(p=p, steps=steps, sampling_mode=mode, master_seed=master_seed), 0
        )
        path = tmp_path_factory.mktemp("maps") / "m.txt"
        save_map(pm, path)
        back = load_map(path)
        assert back == pm
        assert back.marks_known

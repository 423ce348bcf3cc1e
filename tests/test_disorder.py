"""Phase-map generation, sampling statistics, and the text file format."""

import __future__
import gc
import math
import os
import subprocess
import sys
import types
import weakref
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
from oracles import cone_rows, lemire_letters, phase_rows, reference_phase_map
import pdqw.disorder
from pdqw.disorder import (
    DEFAULT_ALPHABET,
    MAX_ALPHABET,
    SAMPLING_MODES,
    check_alphabet,
    ScanSampler,
    _draw,
    _draw_exact,
    _lcg_jumps,
    _mark_count,
    _map_letters,
    _mul128,
    _pcg64_keys,
    _pcg64_states,
    _pcg64_words,
    map_seeds,
    parse_alphabet_token,
    phase_factors,
    sample_block,
)
import pdqw.ensemble
from pdqw.ensemble import chunk_maps, run_ensembles, similarity_scan
from pdqw.two_photon import run_pair_ensembles
from pdqw.walk_core import hadamard_coin, walked_cells

# A block boundary past the first map, where a runner's chunks could split.
SPLIT = 128

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
            assert int(map_seeds(master, idx, idx + 1)[0]) == expect

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

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 0.1, 1 / 3, 0.5, 1 - 1e-16, 1.0])
    @pytest.mark.parametrize("steps", [1, 7, 20, 1000])
    def test_mark_count_is_the_floor_on_the_exact_rational(self, p, steps):
        assert _mark_count(steps, p) == int(Fraction(p) * steps * (steps + 2))

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
            assert int(map_seeds(master, k, k + 1)[0]) == self.numpy_seed(master, k)
        # one block holding both key widths
        block = map_seeds(master, 2**32 - 2, 2**32 + 2)
        assert block.dtype == np.uint64
        assert block.tolist() == [self.numpy_seed(master, k) for k in range(2**32 - 2, 2**32 + 2)]

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    @pytest.mark.parametrize(
        "alphabet", [(math.pi,), DEFAULT_ALPHABET, (0.0, 0.5 * math.pi, math.pi)]
    )
    def test_block_matches_per_map_generation(self, mode, alphabet):
        steps = 4
        spec = DisorderSpec(p=0.3, steps=steps, alphabet=alphabet, sampling_mode=mode, master_seed=12)
        codes = sample_block(spec, map_seeds(12, 0, SPLIT + 3))
        assert codes.dtype == np.int8
        assert codes.shape == (SPLIT + 3, steps, 2 * steps + 1)
        np.testing.assert_array_equal(sample_block(spec, map_seeds(12, SPLIT, SPLIT + 3)), codes[SPLIT:])
        for k in range(SPLIT + 3):
            pm = generate_phase_map(spec, k)
            seed, ref_rows, ref_mask = reference_phase_map(12, k, steps, 0.3, alphabet, mode)
            assert pm.seed == seed
            np.testing.assert_array_equal(pm.codes, codes[k])
            for n in range(1, steps + 1):
                np.testing.assert_array_equal(phase_rows(pm.codes, alphabet)[n - 1], ref_rows[n - 1])
                np.testing.assert_array_equal(marks(pm)[n - 1], ref_mask[n - 1])
                assert not codes[k, n - 1, : steps - n].any()
                assert not codes[k, n - 1, steps + n + 1 :].any()


class TestBulkSeeding:
    """The seeds and PCG64 start states computed in bulk against numpy's own
    SeedSequence, PCG64 and default_rng, map by map, on the installed numpy."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @settings(max_examples=40, deadline=None)
    @given(
        master=st.integers(0, 2**64 - 1),
        start=st.one_of(st.integers(0, 2**20), st.integers(2**32 - 300, 2**32 + 300),
                        st.integers(2**64 - 300, 2**64 - 1)),
        n=st.integers(1, 300),
    )
    def test_map_seeds_equal_seed_sequence(self, master, start, n):
        stop = min(start + n, 2**64)
        expect = [int(np.random.SeedSequence(master, spawn_key=(k,)).generate_state(1, np.uint64)[0])
                  for k in range(start, stop)]
        assert map_seeds(master, start, stop).tolist() == expect

    def test_pcg64_states_equal_numpy(self):
        rng = np.random.default_rng(2024)
        seeds = self.EDGE_SEEDS + rng.integers(0, 2**64, size=50, dtype=np.uint64).tolist()
        got = _pcg64_states(np.array(seeds, dtype=np.uint64))
        for seed, state in zip(seeds, got, strict=True):
            assert np.random.PCG64(seed).state == state

    @pytest.mark.parametrize("steps, n_letters", [(1, 1), (3, 2), (4, 3), (7, 127)])
    def test_exact_fraction_draws_equal_default_rng_map_by_map(self, steps, n_letters):
        total = steps * (steps + 2)
        count = total // 3
        seeds = self.EDGE_SEEDS + map_seeds(5, 0, 20).tolist()
        seeds = np.array(seeds, dtype=np.uint64)
        marks, letters = _draw_exact(steps, n_letters, seeds, np.arange(total), count)
        for i, seed in enumerate(seeds.tolist()):
            rng = np.random.default_rng(seed)
            expect = np.zeros(total, dtype=bool)
            expect[rng.choice(total, size=count, replace=False)] = True
            np.testing.assert_array_equal(marks[:, i], expect)
            np.testing.assert_array_equal(letters[:, i], rng.integers(0, n_letters, size=total) + 1)

    @pytest.mark.parametrize("count", [None, 0])
    def test_a_map_does_not_inherit_the_buffered_half_before_it(self, count):
        # Steps 3 gives 15 cells, so a map's 15 two-letter draws, each one
        # 32-bit half of a 64-bit output, leave the second half buffered
        # (uniforms are 64-bit draws, and an exact_fraction map that marks
        # no cell makes no choice call).
        a, b = map_seeds(3, 0, 2).tolist()
        rng = np.random.default_rng(a)
        if count is None:
            rng.random(15)
        rng.integers(0, 2, size=15)
        assert rng.bit_generator.state["has_uint32"] == 1

        def draw(seeds):
            seeds = np.array(seeds, dtype=np.uint64)
            if count is None:
                return _draw(3, 2, seeds, np.arange(15))
            return _draw_exact(3, 2, seeds, np.arange(15), count)

        for got, expect in zip(draw([a, b]), draw([b])):
            assert got[:, 1].tobytes() == expect[:, 0].tobytes()


class TestPcg64Words:
    """PCG64's output words, computed by jumping its LCG for many maps and
    words at once, against numpy's PCG64."""

    @settings(max_examples=60, deadline=None)
    @given(x=st.integers(0, 2**128 - 1), y=st.integers(0, 2**128 - 1))
    def test_mul128_is_the_product_mod_2_128(self, x, y):
        def split(v):
            return np.array([v >> 64], dtype=np.uint64), np.array([v & (2**64 - 1)], dtype=np.uint64)

        hi, lo = _mul128(*split(x), *split(y))
        assert int(hi[0]) << 64 | int(lo[0]) == x * y % 2**128

    def test_words_equal_random_raw(self):
        seeds = np.array(TestBulkSeeding.EDGE_SEEDS + map_seeds(4, 0, 30).tolist(), dtype=np.uint64)
        ks = np.array([0, 1, 2, 7, 64, 65, 700, 3])  # any order, far ahead included
        words = _pcg64_words(_pcg64_keys(seeds), _lcg_jumps(ks))
        assert words.shape == (len(seeds), len(ks)) and words.dtype == np.uint64
        for row, seed in zip(words, seeds.tolist()):
            np.testing.assert_array_equal(row, np.random.PCG64(seed).random_raw(701)[ks])

    def test_bernoulli_sampling_leaves_numpy_random_unimported(self):
        # numpy 2 imports numpy.random on first use, which costs several ms
        # in a fresh interpreter; only exact_fraction needs its Generator.
        # (numpy 1 imports it with numpy itself.)
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "from pdqw.disorder import DisorderSpec, map_seeds, sample_block, generate_phase_map; "
                "sample_block(DisorderSpec(0.3, 5, (0.0, 1.0, 2.0)), map_seeds(0, 0, 50)); "
                "generate_phase_map(DisorderSpec(0.3, 5), 1); "
                "print(before, 'numpy.random' in sys.modules)")
        src = os.path.dirname(os.path.dirname(pdqw.disorder.__file__))
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before


class TestRawDraw:
    """The bernoulli draw, read off PCG64's output words, against
    default_rng map by map: random(cells), then integers(0, n_letters,
    size=cells)."""

    @staticmethod
    def expected(seed, cells, n_letters):
        rng = np.random.default_rng(seed)
        return rng.random(cells), rng.integers(0, n_letters, size=cells) + 1

    @pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("n_letters", [1, 2, 3, 5, 127])
    @pytest.mark.parametrize("steps", [1, 7, 20])
    def test_draws_equal_default_rng_map_by_map(self, steps, n_letters, master):
        cells = steps * (steps + 2)
        seeds = map_seeds(master, 0, 60)
        uniforms, letters = _draw(steps, n_letters, seeds, np.arange(cells))
        assert uniforms.shape == letters.shape == (cells, 60)
        assert uniforms.dtype == np.float64 and letters.dtype == np.int8
        for i, seed in enumerate(seeds.tolist()):
            expect_uniforms, expect_letters = self.expected(seed, cells, n_letters)
            assert uniforms[:, i].tobytes() == expect_uniforms.tobytes()
            np.testing.assert_array_equal(letters[:, i], expect_letters)

    @pytest.mark.parametrize("n_letters", [2, 3])
    def test_draws_at_some_cells_in_any_order(self, n_letters):
        steps, cells = 5, 35
        at = np.array([34, 0, -1, 7, 7, 1, 20, -1, 33])
        seeds = map_seeds(9, 0, 30)
        uniforms, letters = _draw(steps, n_letters, seeds, np.arange(cells))
        got_uniforms, got_letters = _draw(steps, n_letters, seeds, at)
        inside = at >= 0
        assert got_uniforms[inside].tobytes() == uniforms[at[inside]].tobytes()
        np.testing.assert_array_equal(got_letters[inside], letters[at[inside]])
        assert not got_letters[~inside].any()
        # with p, the marks are whether the uniforms are below it
        marked, same = _draw(steps, n_letters, seeds, at, 0.4)
        np.testing.assert_array_equal(marked, got_uniforms < 0.4)
        np.testing.assert_array_equal(same, got_letters)

    @pytest.mark.parametrize("steps, n_letters", [(1, 3), (7, 2), (20, 5)])
    def test_blocks_do_not_change_the_draws(self, monkeypatch, steps, n_letters):
        cells = steps * (steps + 2)
        seeds = map_seeds(11, 0, 23)
        whole = _draw(steps, n_letters, seeds, np.arange(cells))
        for words in (1, 2 * cells, 7 * cells):  # blocks of one map up to four
            monkeypatch.setattr(pdqw.disorder, "_BLOCK_WORDS", words)
            for got, expect in zip(_draw(steps, n_letters, seeds, np.arange(cells)), whole):
                assert got.tobytes() == expect.tobytes()

    # Maps whose letter words hit a Lemire rejection: found by search over
    # master seed 0 at steps 20, where a draw is rejected with probability
    # 118 / 2**32 for 122 letters and 16 / 2**32 for 127.
    @pytest.mark.parametrize("n_letters, index", [(122, 99935), (127, 178120)])
    def test_a_rejected_draw_matches_default_rng(self, monkeypatch, n_letters, index):
        streams = []
        real = pdqw.disorder._letter_stream
        monkeypatch.setattr(pdqw.disorder, "_letter_stream", lambda *a: streams.append(a) or real(*a))
        seeds = map_seeds(0, index - 1, index + 2)
        uniforms, letters = _draw(20, n_letters, seeds, np.arange(440))
        assert len(streams) == 1  # only map `index` is read again
        for i, seed in enumerate(seeds.tolist()):
            expect_uniforms, expect_letters = self.expected(seed, 440, n_letters)
            assert uniforms[:, i].tobytes() == expect_uniforms.tobytes()
            np.testing.assert_array_equal(letters[:, i], expect_letters)

    @pytest.mark.parametrize("n_letters", [3, 5, 6, 100, 122, 127])
    def test_letter_rule_rejects_as_lemire(self, n_letters):
        threshold = (2**32 - n_letters) % n_letters
        # The smallest word above each of the first multiples of 2**32 / n
        # leaves m mod 2**32 below n_letters; those below the threshold are
        # rejected.
        edge = [-(-j * 2**32 // n_letters) for j in range(1, 300)]
        rejected = [u for u in [0, *edge] if u * n_letters % 2**32 < threshold]
        assert rejected
        rng = np.random.default_rng(n_letters)
        for _ in range(20):
            words = rng.integers(0, 2**32, size=200).tolist()
            for k in rng.choice(len(words), size=30, replace=False).tolist():
                words[k] = rejected[int(rng.integers(len(rejected)))]
            expect = lemire_letters(words, n_letters)
            got = _map_letters(np.array(words, dtype=np.uint64), n_letters)
            assert got.tolist() == expect
            assert len(expect) < len(words)

    def test_letter_rule_without_rejection(self):
        # A power of two rejects nothing: the letter is the word's top bits.
        words = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint64)
        assert _map_letters(words, 1).tolist() == [0, 0, 0, 0]
        assert _map_letters(words, 2).tolist() == [0, 0, 1, 1]
        assert _map_letters(words, 64).tolist() == [0, 0, 32, 63]


@pytest.fixture
def draws(monkeypatch):
    """Record every call of pdqw.disorder._draw and _draw_exact as (seed of
    its first map, number of maps), and a weak reference to each array it
    returns: ScanSampler holds a bernoulli chunk's draws as returned."""
    calls, arrays = [], []

    def recording(real):
        def draw(steps, n_letters, seeds, *args):
            out = real(steps, n_letters, seeds, *args)
            calls.append((int(seeds[0]), len(seeds)))
            arrays.extend(weakref.ref(a) for a in out)
            return out
        return draw

    for name in ("_draw", "_draw_exact"):
        monkeypatch.setattr(pdqw.disorder, name, recording(getattr(pdqw.disorder, name)))
    return calls, arrays


def chunk_draws(master, n_maps, size):
    """The draws of chunks of `size` maps, each once, as `draws` records them."""
    return [(int(map_seeds(master, a, a + 1)[0]), min(size, n_maps - a)) for a in range(0, n_maps, size)]


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


def plane_cells(steps):
    """Every cell of a code plane, row by row."""
    return np.indices((steps, 2 * steps + 1)).reshape(2, -1)


def cone_cells(steps, start=(0,)):
    """The cells that walks from each of the sites `start` read, one walk
    after the other, with columns wrapped onto the code plane's."""
    cells = [walked_cells(s + steps, steps) for s in start]
    return (np.concatenate([rows for rows, _ in cells]),
            np.concatenate([cols for _, cols in cells]) % (2 * steps + 1))


def as_planes(codes, steps):
    """Codes gathered at plane_cells(steps) back as code planes."""
    return codes.T.reshape(-1, steps, 2 * steps + 1)


class TestScanSampler:
    P_GRID = [0.0, 0.3, 0.5, 1.0]

    @pytest.mark.parametrize(
        "alphabet", [(math.pi,), DEFAULT_ALPHABET, (0.0, 0.5 * math.pi, math.pi)]
    )
    def test_codes_match_the_reference_at_every_p(self, draws, alphabet):
        steps = 4
        chunks = [(0, SPLIT), (SPLIT, SPLIT + 3)]
        sampler = ScanSampler([DisorderSpec(p, steps, alphabet, master_seed=12) for p in self.P_GRID],
                              *plane_cells(steps))
        for i, p in enumerate(self.P_GRID):
            for start, stop in chunks:
                planes = as_planes(sampler.sample(i, start, stop), steps)
                assert_codes_match_reference(planes, 12, start, steps, p, alphabet)
        assert sorted(draws[0]) == sorted(chunk_draws(12, SPLIT + 3, SPLIT))

    @pytest.mark.parametrize("master", [2**32 - 1, 2**64 - 1])
    def test_master_seeds_at_the_word_edges(self, master):
        sampler = ScanSampler([DisorderSpec(p, 3, master_seed=master) for p in self.P_GRID], *plane_cells(3))
        for i, p in enumerate(self.P_GRID):
            planes = as_planes(sampler.sample(i, 5, 9), 3)
            assert_codes_match_reference(planes, master, 5, 3, p, DEFAULT_ALPHABET)

    @pytest.mark.parametrize("runner", ["run_ensembles", "similarity_scan", "run_pair_ensembles"])
    def test_each_chunk_is_drawn_once_per_call(self, draws, monkeypatch, runner):
        monkeypatch.setattr(pdqw.ensemble, "BATCH_CELLS", 4 * 10)  # 10 maps a chunk at steps 3
        p_grid, n_maps = [0.0, 0.1, 0.4, 0.1, 0.8], 25
        specs = [DisorderSpec(p, 3, master_seed=8) for p in p_grid]
        calls = {
            "run_ensembles": lambda: run_ensembles(specs, hadamard_coin(), n_maps),
            "similarity_scan": lambda: similarity_scan(p_grid, 3, n_maps, hadamard_coin(), master_seed=8),
            "run_pair_ensembles": lambda: run_pair_ensembles(specs, hadamard_coin(), n_maps, eta=1.0),
        }
        for repeat in (1, 2):  # a second call keeps nothing from the first
            calls[runner]()
            assert sorted(draws[0]) == sorted(chunk_draws(8, n_maps, 10) * repeat)

    def test_a_chunk_is_dropped_after_its_last_read(self, draws):
        sampler = ScanSampler([DisorderSpec(p, 3, master_seed=6) for p in (0.2, 0.5, 0.2)], *cone_cells(3))
        sampler.sample(0, 0, 10)
        sampler.sample(1, 0, 10)
        gc.collect()
        arrays = draws[1]
        assert len(arrays) == 2 and all(ref() is not None for ref in arrays)
        sampler.sample(2, 0, 10)
        gc.collect()
        assert all(ref() is None for ref in arrays)
        assert len(draws[0]) == 1

    def test_exact_fraction_draws_afresh_for_every_p(self, draws):
        specs = [DisorderSpec(p, 4, sampling_mode="exact_fraction", master_seed=2) for p in self.P_GRID]
        rows, cols = cone_cells(4)
        sampler = ScanSampler(specs, rows, cols)
        for i, spec in enumerate(specs):
            for start, stop in [(0, SPLIT), (SPLIT, SPLIT + 3)]:
                np.testing.assert_array_equal(sampler.sample(i, start, stop),
                                              sample_block(spec, map_seeds(2, start, stop))[:, rows, cols].T)
        # once by the sampler and once by the reference, per p and chunk
        assert sorted(draws[0]) == sorted(chunk_draws(2, SPLIT + 3, SPLIT) * 2 * len(specs))

    def test_nothing_is_held_after_a_call(self, draws):
        similarity_scan([0.0, 0.5, 0.9], 5, chunk_maps(5) + 3, hadamard_coin(), master_seed=4)
        gc.collect()
        calls, arrays = draws
        assert len(calls) == 2 and arrays
        assert all(ref() is None for ref in arrays)
        # and the module keeps no state that could hold them
        immutable = (types.ModuleType, type, types.FunctionType, __future__._Feature,
                     tuple, str, int, float, frozenset)
        state = [name for name, value in vars(pdqw.disorder).items()
                 if not name.startswith("__") and not isinstance(value, immutable)]
        assert state == []

    @settings(max_examples=40, deadline=None)
    @given(
        master=st.integers(0, 2**64 - 1),
        steps=st.integers(1, 8),
        n_letters=st.integers(1, 4),
        p_list=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        maps=st.integers(1, 300),
        size=st.integers(1, 300),
        chunk_major=st.booleans(),
        mode=st.sampled_from(SAMPLING_MODES),
        inputs=st.lists(st.integers(-8, 8), min_size=1, max_size=2),
    )
    def test_codes_equal_a_fresh_sample_block(self, master, steps, n_letters, p_list, maps, size,
                                              chunk_major, mode, inputs):
        # ScanSampler takes any cells: walks from off-origin sites read
        # cells outside a row's sites, across the plane's seam and, where
        # two walks overlap, the same cell twice.
        specs = [DisorderSpec(p, steps, range(n_letters), mode, master) for p in p_list]
        rows, cols = cone_cells(steps, [s % (2 * steps + 1) - steps for s in inputs])
        sampler = ScanSampler(specs, rows, cols)
        reads = [(i, a, min(a + size, maps)) for i in range(len(specs)) for a in range(0, maps, size)]
        if chunk_major:
            reads.sort(key=lambda r: r[1])
        for i, start, stop in reads:
            np.testing.assert_array_equal(sampler.sample(i, start, stop),
                                          sample_block(specs[i], map_seeds(master, start, stop))[:, rows, cols].T)


class TestPhaseFactors:
    # Tokens in units of pi, as config and map files give them.
    @pytest.mark.parametrize("token, factor", [
        ("0", 1), ("0.5", 1j), ("-0.5", -1j), ("1", -1), ("pi", -1), ("1.5", -1j), ("2", 1),
    ])
    def test_quarter_turns_are_exact(self, token, factor):
        table = phase_factors([parse_alphabet_token(token)])
        assert table.dtype == complex
        assert table[0] == 1
        assert (table[1].real, table[1].imag) == (factor.real, factor.imag)

    def test_default_alphabet_is_real(self):
        table = phase_factors(DEFAULT_ALPHABET)
        assert np.array_equal(table.real, [1.0, 1.0, -1.0])
        assert not table.imag.any()

    @pytest.mark.parametrize("token", ["0.25", "-0.75", repr(1 / 3), "0.1"])
    def test_other_letters_keep_exp(self, token):
        a = parse_alphabet_token(token)
        table = phase_factors([0.0, a])
        reference = np.exp(1j * np.array([0.0, 0.0, a]))
        assert table[2:].tobytes() == reference[2:].tobytes()
        assert table[2].imag != 0.0


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

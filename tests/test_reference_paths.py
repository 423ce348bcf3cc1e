"""The batched moments, the one-block light cone and the CSV writer,
bit for bit against the step-by-step and broadcasting code they replaced,
and the float64 walk against the complex128 walk it replaces wherever the
coin and phase factors are real.

numpy does not promise one reduction order across releases, so every test
here runs its reference code on the numpy under test instead of comparing
with frozen numbers.
"""

import math

import numpy as np
import pytest

import pdqw.ensemble
import pdqw.two_photon
import pdqw.walk_core
from pdqw import (
    DisorderSpec,
    coin_from_reflectivity,
    evolve,
    generate_phase_map,
    hadamard_coin,
    position_distribution,
    run_ensemble,
    run_ensembles,
    run_pair_ensemble,
)
from pdqw.analysis import Distribution
from pdqw.cli import _cone_keys, _write_csv
from pdqw.disorder import DEFAULT_ALPHABET, phase_factors, sample_block
from pdqw.ensemble import chunk_maps, mean_and_std
from pdqw.walk_core import _walk_operands

COIN = hadamard_coin()
ALPHABET = (0.0, 0.5 * math.pi, math.pi)


def left_to_right(terms):
    """Row sums of (maps, sites) terms, adding one site at a time from the
    left: the order every per-map moment of the runners is declared in."""
    total = terms[:, 0].copy()
    for column in terms[:, 1:].T:
        total += column
    return total


def reference_chunk(spec, coin, table, start, stop):
    """Maps start..stop-1 stepped one step at a time over the whole lattice,
    with fancy-indexed phase factors and the moments taken after every step
    over the sites of the light cone, the only ones with weight, added left
    to right."""
    steps = spec.steps
    n_sites = 2 * steps + 1
    block = stop - start
    codes = sample_block(spec, start, stop)
    psi0 = np.zeros((block, n_sites), dtype=complex)
    psi1 = np.zeros_like(psi0)
    psi0[:, steps] = 1.0
    variances = np.empty((block, steps))
    dists = np.zeros((block, steps, n_sites))
    for n in range(1, steps + 1):
        b1 = table[codes[..., n - 1, :]] * psi1
        a0 = coin[0, 0] * psi0 + coin[0, 1] * b1
        a1 = coin[1, 0] * psi0 + coin[1, 1] * b1
        psi0 = np.empty_like(a0)
        psi1 = np.empty_like(a1)
        psi0[..., :-1] = a0[..., 1:]
        psi1[..., 1:] = a1[..., :-1]
        psi0[..., -1] = a0[..., 0]
        psi1[..., 0] = a1[..., -1]
        weights = np.abs(psi0) ** 2 + np.abs(psi1) ** 2
        cone = slice(steps - n, steps + n + 1, 2)  # sites -n, -n + 2, ..., n
        sites = np.arange(-n, n + 1, 2, dtype=float)
        sites_sq = sites * sites
        on_cone = weights[:, cone].copy()
        weights[:, cone] = 0.0
        assert not weights.any()
        prob = on_cone / left_to_right(on_cone)[:, None]
        dists[:, n - 1, cone] = prob
        m1 = left_to_right(prob * sites)
        m2 = left_to_right(prob * sites_sq)
        variances[:, n - 1] = m2 - m1 * m1
    return variances, dists


def reference_write_csv(path, header, blocks):
    """Each block broadcast to full columns, every cell formatted apart."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            columns = np.broadcast_arrays(*map(np.atleast_1d, block))
            cells = [map(repr if c.dtype.kind == "f" else str, c.tolist()) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def reference_cone_blocks(dists, *lead):
    """One (*lead, step, site, probability) block per step."""
    for step, dist in enumerate(dists, start=1):
        keep = np.abs(dist.sites) <= step
        yield [*lead, step, dist.sites[keep], dist.probabilities[keep]]


class TestBatchedMoments:
    @pytest.mark.parametrize("mode", ["bernoulli", "exact_fraction"])
    @pytest.mark.parametrize("steps", [1, 7, 20])
    # The three p share one batch, except at 600 maps of steps 7 (one p per
    # batch) and at 260 and 600 maps of steps 20 (one chunk per batch, and
    # 600 maps split every p in two).
    @pytest.mark.parametrize("n_maps", [1, 64, 260, 600])
    def test_matches_the_per_step_loop(self, n_maps, steps, mode):
        specs = [DisorderSpec(p=p, steps=steps, alphabet=ALPHABET, sampling_mode=mode, master_seed=5)
                 for p in (0.5, 0.0, 0.9)]
        table = phase_factors(ALPHABET)
        for spec, res in zip(specs, run_ensembles(specs, COIN, n_maps)):
            ref_var, ref_dists = reference_chunk(spec, COIN, table, 0, n_maps)
            mean, std = mean_and_std(ref_var)
            assert (res.p, res.steps, res.n_maps) == (spec.p, steps, n_maps)
            assert np.array_equal(res.mean_variance, mean)
            assert np.array_equal(res.std_variance, std)
            assert res.mean_probabilities.shape == (steps, 2 * steps + 1)
            assert np.array_equal(res.mean_probabilities, ref_dists.mean(axis=0))
            assert len(res.mean_distributions) == steps
            for n, dist in enumerate(res.mean_distributions):
                assert dist.offset == -steps
                assert np.array_equal(dist.probabilities, ref_dists[:, n, :].mean(axis=0))

    # A third of a chunk puts three p in a batch, so seven p leave a last
    # batch of one; a chunk and 51 maps put one chunk in each batch and
    # split every p in two.
    @pytest.mark.parametrize("n_maps", [chunk_maps(20) // 3, chunk_maps(20) + 51])
    def test_uneven_batches_match_one_p_at_a_time(self, n_maps):
        grid = [0.0, 0.13, 0.5, 0.13, 1.0, 0.27, 0.9]
        specs = [DisorderSpec(p=p, steps=20, master_seed=11) for p in grid]
        for spec, res in zip(specs, run_ensembles(specs, COIN, n_maps), strict=True):
            one = run_ensemble(spec, COIN, n_maps)
            assert res.p == one.p
            assert np.array_equal(res.mean_variance, one.mean_variance)
            assert np.array_equal(res.std_variance, one.std_variance)
            assert np.array_equal(res.mean_probabilities, one.mean_probabilities)


def complex_operands(coin, alphabet):
    """_walk_operands, but always in complex128."""
    coin, table = _walk_operands(coin, alphabet)
    return coin.astype(complex), table.astype(complex)


@pytest.mark.parametrize("reflectivity", [0.5, 0.45])
class TestRealWalk:
    """On the default {0, pi} alphabet every coin_from_reflectivity walk runs
    in float64, and gives what the complex128 walk gives, bit for bit."""

    @pytest.mark.parametrize("steps, n_maps", [(7, 64), (20, 64), (20, 300)])
    def test_ensemble_matches_the_complex_per_step_loop(self, reflectivity, steps, n_maps):
        coin = coin_from_reflectivity(reflectivity)
        assert _walk_operands(coin, DEFAULT_ALPHABET)[0].dtype == np.float64
        table = phase_factors(DEFAULT_ALPHABET)
        assert table.dtype == np.complex128
        specs = [DisorderSpec(p=p, steps=steps, master_seed=9) for p in (0.5, 0.0, 1.0)]
        for spec, res in zip(specs, run_ensembles(specs, coin, n_maps)):
            ref_var, ref_dists = reference_chunk(spec, coin, table, 0, n_maps)
            mean, std = mean_and_std(ref_var)
            assert np.array_equal(res.mean_variance, mean)
            assert np.array_equal(res.std_variance, std)
            assert np.array_equal(res.mean_probabilities, ref_dists.mean(axis=0))

    def test_every_path_matches_its_complex_walk(self, reflectivity, monkeypatch):
        coin = coin_from_reflectivity(reflectivity)
        spec = DisorderSpec(p=0.6, steps=9, master_seed=4)
        pm = generate_phase_map(spec, 0)

        def run():
            return (
                run_ensembles([spec], coin, 40)[0],
                run_pair_ensemble(spec, coin, 40, eta=0.8),
                [s.amplitudes for s in evolve(11, coin, pm, 9)],
            )

        real = run()
        for module in (pdqw.walk_core, pdqw.ensemble, pdqw.two_photon):
            monkeypatch.setattr(module, "_walk_operands", complex_operands)
        ens, pair, amplitudes = run()
        assert np.array_equal(real[0].mean_variance, ens.mean_variance)
        assert np.array_equal(real[0].std_variance, ens.std_variance)
        assert np.array_equal(real[0].mean_probabilities, ens.mean_probabilities)
        assert real[0].max_norm_drift == ens.max_norm_drift
        for a, b in zip(real[1].window_matrices, pair.window_matrices, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(real[1].mean_variance2, pair.mean_variance2)
        assert np.array_equal(real[1].std_variance2, pair.std_variance2)
        assert real[1].max_norm_drift == pair.max_norm_drift
        assert np.array_equal(real[2], amplitudes)


def csv_text(tmp_path, writer, header, blocks):
    path = tmp_path / f"{writer.__name__}.csv"
    writer(path, header, blocks)
    return path.read_text()


class TestWriter:
    @pytest.mark.parametrize("header, blocks", [
        pytest.param(["step", "p_star"],
                     [[5, 0.31], [6, float("nan")], [7, np.float64(1 / 3)]],
                     id="all-scalar blocks"),
        pytest.param(["site_i", "site_j", "probability", "probability_display"],
                     [[np.array([-1, -1, 0]), np.array([-1, 1, 0]), np.zeros(3), 0.0]],
                     id="scalar 0.0 column"),
        pytest.param(["p", "step", "site", "probability"],
                     [[0.5, np.arange(0), np.arange(0), np.array([])],
                      [0.25, 3, np.array([], dtype=int), np.zeros(0)]],
                     id="zero-length arrays"),
        pytest.param(["p", "step", "mean_var", "n_maps", "seed"],
                     [[0.01, np.arange(1, 4), np.array([1.0, 2.5, 1e-300]), 64, 2**64 - 1],
                      [np.float64(0.1 + 0.2), np.arange(1, 4), np.arange(3.0), 64, 0]],
                     id="int and float columns"),
        pytest.param(["p", "step", "s"],
                     [[np.array([0.0, 0.5, 1.0]), n, np.array([0.1, 0.7, 1.0]) / n] for n in (1, 2)],
                     id="array and scalar columns"),
        pytest.param(["p", "step", "site", "probability"],
                     [[p, ["1,-1", "1,1", "2,0"], np.array([0.5, 0.5, 1 / 3]) * p] for p in (1e-05, 0.75)],
                     id="pre-formatted text column"),
    ])
    def test_matches_the_broadcasting_writer(self, tmp_path, header, blocks):
        assert (csv_text(tmp_path, _write_csv, header, blocks)
                == csv_text(tmp_path, reference_write_csv, header, blocks))

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "bad.csv", ["a", "b"], [[np.arange(2), np.arange(3.0)]])

    def test_text_column_length_counts(self, tmp_path):
        # A pre-formatted column sets the row count like an array does.
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "bad.csv", ["p", "step", "site", "probability"],
                       [[0.5, ["1,-1", "1,1"], np.arange(3.0)]])
        assert not (tmp_path / "bad.csv").exists()
        path = tmp_path / "scalars.csv"
        _write_csv(path, ["step", "p_star", "seed"], [[5, 0.25, np.uint64(2**64 - 1)]])
        assert path.read_text() == "step,p_star,seed\n5,0.25,18446744073709551615\n"


class TestConeBlock:
    def test_one_block_per_p_matches_blocks_per_step(self, tmp_path):
        rng = np.random.default_rng(4)
        runs = {p: [Distribution(offset=-6, probabilities=rng.random(13)) for _ in range(6)]
                for p in (0.0, 0.37, 1.0)}
        header = ["p", "step", "site", "probability"]
        keys, keep = _cone_keys(6)
        got = csv_text(tmp_path, _write_csv, header,
                       ([p, keys, np.stack([d.probabilities for d in dists])[keep]]
                        for p, dists in runs.items()))
        want = csv_text(tmp_path, reference_write_csv, header,
                        (b for p, dists in runs.items() for b in reference_cone_blocks(dists, p)))
        assert got == want

    @pytest.mark.parametrize("steps", [5, 8])
    def test_evolve_block_matches_blocks_per_step(self, tmp_path, steps):
        dists = [position_distribution(s) for s in evolve(steps, COIN, None, steps)]
        header = ["step", "site", "probability"]
        keys, keep = _cone_keys(steps)
        probs = np.stack([d.probabilities for d in dists])
        assert (csv_text(tmp_path, _write_csv, header, [[keys, probs[keep]]])
                == csv_text(tmp_path, reference_write_csv, header, reference_cone_blocks(dists)))

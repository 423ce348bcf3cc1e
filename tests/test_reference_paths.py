"""The chunk-tensor moments, the one-block light cone and the CSV writer,
bit for bit against the step-by-step and broadcasting code they replaced.

numpy does not promise one reduction order across releases, so every test
here runs its reference code on the numpy under test instead of comparing
with frozen numbers.
"""

import math

import numpy as np
import pytest

from pdqw import DisorderSpec, evolve, hadamard_coin, position_distribution, run_ensemble
from pdqw.analysis import Distribution
from pdqw.cli import _cone_block, _write_csv
from pdqw.disorder import phase_factors, sample_block
from pdqw.ensemble import CHUNK_SIZE, _simulate_chunk, mean_and_std

COIN = hadamard_coin()
ALPHABET = (0.0, 0.5 * math.pi, math.pi)


def reference_chunk(spec, coin, table, start, stop):
    """Maps start..stop-1 stepped one step at a time, with fancy-indexed
    phase factors and the moments taken after every step."""
    steps = spec.steps
    n_sites = 2 * steps + 1
    block = stop - start
    codes = sample_block(spec, start, stop)
    psi0 = np.zeros((block, n_sites), dtype=complex)
    psi1 = np.zeros_like(psi0)
    psi0[:, steps] = 1.0
    sites = np.arange(-steps, steps + 1, dtype=float)
    sites_sq = sites * sites
    variances = np.empty((block, steps))
    dists = np.empty((block, steps, n_sites))
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
        totals = weights.sum(axis=1, keepdims=True)
        prob = weights / totals
        dists[:, n - 1, :] = prob
        m1 = (prob * sites).sum(axis=1)
        m2 = (prob * sites_sq).sum(axis=1)
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


class TestChunkMoments:
    @pytest.mark.parametrize("steps", [1, 7, 20])
    # 130 and 300 maps span two and three chunks.
    @pytest.mark.parametrize("n_maps", [1, 64, 130, 300])
    def test_matches_the_per_step_loop(self, n_maps, steps):
        spec = DisorderSpec(p=0.5, steps=steps, alphabet=ALPHABET,
                            sampling_mode="exact_fraction", master_seed=5)
        table = phase_factors(spec.alphabet)
        chunks = [(a, min(a + CHUNK_SIZE, n_maps)) for a in range(0, n_maps, CHUNK_SIZE)]
        ref = [reference_chunk(spec, COIN, table, a, b) for a, b in chunks]
        for (a, b), (ref_var, ref_dists) in zip(chunks, ref):
            variances, dists = _simulate_chunk(spec, COIN, table, a, b)
            assert np.array_equal(variances, ref_var)
            assert np.array_equal(dists, ref_dists)

        ref_var = np.concatenate([r[0] for r in ref])
        ref_dists = np.concatenate([r[1] for r in ref])
        res = run_ensemble(spec, COIN, n_maps)
        mean, std = mean_and_std(ref_var)
        assert np.array_equal(res.mean_variance, mean)
        assert np.array_equal(res.std_variance, std)
        assert len(res.mean_distributions) == steps
        for n, dist in enumerate(res.mean_distributions):
            assert dist.offset == -steps
            assert np.array_equal(dist.probabilities, ref_dists[:, n, :].mean(axis=0))


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
    ])
    def test_matches_the_broadcasting_writer(self, tmp_path, header, blocks):
        assert (csv_text(tmp_path, _write_csv, header, blocks)
                == csv_text(tmp_path, reference_write_csv, header, blocks))

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "bad.csv", ["a", "b"], [[np.arange(2), np.arange(3.0)]])


class TestConeBlock:
    def test_one_block_per_p_matches_blocks_per_step(self, tmp_path):
        rng = np.random.default_rng(4)
        runs = {p: [Distribution(offset=-6, probabilities=rng.random(13)) for _ in range(6)]
                for p in (0.0, 0.37, 1.0)}
        header = ["p", "step", "site", "probability"]
        got = csv_text(tmp_path, _write_csv, header,
                       (_cone_block(dists, p) for p, dists in runs.items()))
        want = csv_text(tmp_path, reference_write_csv, header,
                        (b for p, dists in runs.items() for b in reference_cone_blocks(dists, p)))
        assert got == want

    @pytest.mark.parametrize("n_max", [5, 8])
    def test_evolve_block_matches_blocks_per_step(self, tmp_path, n_max):
        dists = [position_distribution(s) for s in evolve(n_max, COIN, None, 5)]
        header = ["step", "site", "probability"]
        assert (csv_text(tmp_path, _write_csv, header, [_cone_block(dists)])
                == csv_text(tmp_path, reference_write_csv, header, reference_cone_blocks(dists)))

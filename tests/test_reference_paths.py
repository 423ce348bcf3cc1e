"""The batched moments, the row templates of every CSV table and light-cone
file, bit for bit against the step-by-step and broadcasting code they replaced,
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
    crossing_point,
    evolve,
    fit_beta,
    generate_phase_map,
    hadamard_coin,
    hom_scan,
    position_distribution,
    run_ensemble,
    run_ensembles,
    run_pair_ensemble,
    run_pair_ensembles,
    similarity_scan,
)
from pdqw.analysis import Distribution
from pdqw.cli import _cone_rows, _Outputs, _write_table, main
from pdqw.disorder import DEFAULT_ALPHABET, ScanSampler, phase_factors
from pdqw.ensemble import chunk_maps, mean_and_std
from pdqw.errors import DomainError
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
    codes = ScanSampler.whole_plane([spec]).sample(0, start, stop).T.reshape(block, steps, n_sites)
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


def write_table(path, header, keys, columns, **kwargs):
    """The CLI's table writer, writing `path`."""
    _write_table(_Outputs(path.parent), path.name, header, keys, columns, **kwargs)


def csv_text(tmp_path, writer, header, blocks):
    path = tmp_path / f"{writer.__name__}.csv"
    writer(path, header, blocks)
    return path.read_text()


HOM = [np.array([-1e-05, 0.0, 3.0]), np.array([0.5, 0.93, 1e-300]), np.array([1.0, 0.07, -0.0])]


class TestWriter:
    @pytest.mark.parametrize("header, table, blocks", [
        pytest.param(["step", "p_star"], dict(keys=["5,", "6,", "7,"], columns=[[0.31, math.nan, 1 / 3]]),
                     [[5, 0.31], [6, math.nan], [7, np.float64(1 / 3)]],
                     id="one value column"),
        pytest.param(["step", "p_star"], dict(keys=[], columns=[np.array([])]), [[np.arange(0), np.array([])]],
                     id="no rows"),
        pytest.param(["p", "step", "mean_var", "n_maps", "seed"],
                     dict(keys=["1,", "2,", "3,"], columns=[[np.array([1.0, 2.5, 1e-300]), np.arange(3.0)]],
                          tail=f",64,{2**64 - 1}", leads=["0.01,", f"{0.1 + 0.2!r},"]),
                     [[0.01, np.arange(1, 4), np.array([1.0, 2.5, 1e-300]), 64, 2**64 - 1],
                      [np.float64(0.1 + 0.2), np.arange(1, 4), np.arange(3.0), 64, 2**64 - 1]],
                     id="a block per lead, constant tail cells"),
        pytest.param(["p", "step", "s", "t"],
                     dict(keys=[f"{p!r},{n}," for n in (1, 2) for p in (0.0, 0.5, 1.0)],
                          columns=[np.array([[0.1, 0.7, 1.0], [0.05, 0.35, 0.5]]), -np.arange(6.0).reshape(2, 3)]),
                     [[np.array([0.0, 0.5, 1.0]), n, np.array([0.1, 0.7, 1.0]) / n, -np.arange(3.0 * n - 3, 3.0 * n)]
                      for n in (1, 2)],
                     id="2-D columns, step-major"),
        pytest.param(["delay", "eta", "normalized_coincidence"], dict(keys=[""] * 3, columns=HOM), [HOM],
                     id="no key cells"),
    ])
    def test_matches_the_broadcasting_writer(self, tmp_path, header, table, blocks):
        path = tmp_path / "table.csv"
        write_table(path, ",".join(header), **table)
        assert path.read_text() == csv_text(tmp_path, reference_write_csv, header, blocks)

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "bad.csv", "a,b", ["", ""], [np.arange(2.0), np.arange(3.0)])

    @pytest.mark.parametrize("leads, n_values", [(("",), 3), (["0.5,", "1.0,"], 5), (["0.5,", "1.0,"], 6)])
    def test_text_column_length_counts(self, tmp_path, leads, n_values):
        # The key cells, once per lead, set the row count: a column of
        # another length fails, and no file is left.
        with pytest.raises(ValueError):
            write_table(tmp_path / "bad.csv", "p,step,site,probability", ["1,-1,", "1,1,"],
                        [np.arange(float(n_values))], leads=leads)
        assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("seed", [9, 2**64 - 1])
class TestTables:
    """Each small table a command writes, through main, against the
    broadcasting writer applied to the same results computed in process.
    1e-05 is a p whose repr has an exponent, 0.1 + 0.2 one that needs 17
    digits, and 2**64 - 1 the largest --seed."""

    P = [0.0, 1e-05, 0.1 + 0.2, 1.0]
    # The CLI's coin, which differs from hadamard_coin() in the last ulp.
    COIN = coin_from_reflectivity(0.5)

    def run(self, tmp_path, command, seed, extra=""):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("steps: 4\nn_maps: 3\nmaster_seed: 9\ncrossing_steps: [3, 4]\n"
                       "p_values: [0.0, 1e-05, 0.30000000000000004, 1.0]\n"
                       "p_grid: [0.0, 1e-05, 0.30000000000000004, 1.0]\n" + extra)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        return out

    def specs(self, seed):
        return [DisorderSpec(p=p, steps=4, master_seed=seed) for p in self.P]

    def test_ensemble(self, tmp_path, seed):
        out = self.run(tmp_path, "ensemble", seed)
        results = run_ensembles(self.specs(seed), self.COIN, 3)
        peak = np.max([r.mean_variance for r in results], axis=0)
        header = ["p", "step", "mean_var", "std_var", "mean_var_normalized", "n_maps", "seed"]
        assert (out / "ensemble.csv").read_text() == csv_text(tmp_path, reference_write_csv, header, (
            [r.p, np.arange(1, 5), r.mean_variance, r.std_variance, r.mean_variance / peak, 3, seed]
            for r in results))

    def test_beta(self, tmp_path, seed):
        out = self.run(tmp_path, "beta", seed)
        results = run_ensembles(self.specs(seed), self.COIN, 3)
        header = ["p", "beta", "beta_stderr", "prefactor", "fit_lo", "fit_hi", "n_maps", "seed"]
        blocks = []
        for r in results:
            fit = fit_beta(r.mean_variance, (1, 4))
            blocks.append([r.p, fit.beta, fit.beta_stderr, fit.prefactor, *fit.fit_range, 3, seed])
        assert (out / "beta.csv").read_text() == csv_text(tmp_path, reference_write_csv, header, blocks)

    def test_crossing(self, tmp_path, seed):
        out = self.run(tmp_path, "crossing", seed)
        scan = similarity_scan(self.P, 4, 3, self.COIN, seed)
        assert (out / "similarity_scan.csv").read_text() == csv_text(
            tmp_path, reference_write_csv, ["p", "step", "s_ordered", "s_disordered"],
            ([np.array(self.P), n, scan.s_ordered[n - 1], scan.s_disordered[n - 1]] for n in range(1, 5)))
        points = [crossing_point(self.P, scan.s_ordered[n - 1], scan.s_disordered[n - 1], n) for n in (3, 4)]
        assert (out / "crossing.csv").read_text() == csv_text(
            tmp_path, reference_write_csv, ["step", "p_star"], ([cp.step, cp.p_star] for cp in points))

    @pytest.mark.parametrize("display", [False, True])
    def test_two_photon(self, tmp_path, seed, display):
        out = self.run(tmp_path, "two-photon", seed,
                       f"two_photon: {{eta: 0.8, display_normalization: {str(display).lower()}}}\n")
        results = run_pair_ensembles(self.specs(seed), self.COIN, 3, 0.8)
        header = ["p", "step", "mean_var2", "std_var2", "n_maps", "seed"]
        assert (out / "two_photon_var2.csv").read_text() == csv_text(tmp_path, reference_write_csv, header, (
            [p, np.arange(1, 5), ens.mean_variance2, ens.std_variance2, 3, seed]
            for p, ens in zip(self.P, results)))

    def test_hom(self, tmp_path, seed):
        delays = [-3.0, -1e-05, 0.0, 0.1 + 0.2, 2.5]
        out = self.run(tmp_path, "hom", seed, "two_photon: {visibility: 0.9, coherence_time: 0.7, "
                                              "delays: [-3.0, -1e-05, 0.0, 0.30000000000000004, 2.5]}\n")
        scan = hom_scan(delays, 0.7, 0.9, self.COIN)
        assert (out / "hom.csv").read_text() == csv_text(
            tmp_path, reference_write_csv, ["delay", "eta", "normalized_coincidence"],
            [[scan.delays, scan.etas, scan.coincidences]])


def reached(steps):
    """Mask of the (step, site) cells a walk from the origin reaches: |site|
    <= step, with the parity of step."""
    sites = np.arange(-steps, steps + 1)
    step = np.arange(1, steps + 1)[:, None]
    return (np.abs(sites) <= step) & ((sites + step) % 2 == 0)


def cone_text(rows, header, blocks):
    """The CLI's light-cone text: the header, then each (lead, source) block
    through the row template."""
    return header + "\n" + "".join(rows.text(rows.values(src), lead=lead) for lead, src in blocks)


class TestConeBlock:
    HEADER = ["p", "step", "site", "probability"]

    def test_one_block_per_p_matches_blocks_per_step(self, tmp_path):
        # Walk-shaped: random values where the walk reaches, +0.0 elsewhere.
        rng = np.random.default_rng(4)
        runs = {p: rng.random((6, 13)) * reached(6) for p in (0.0, 0.37, 1.0)}
        got = cone_text(_cone_rows(6), ",".join(self.HEADER),
                        ((f"{p!r},", probs) for p, probs in runs.items()))
        want = csv_text(tmp_path, reference_write_csv, self.HEADER, (
            b for p, probs in runs.items()
            for b in reference_cone_blocks([Distribution(offset=-6, probabilities=row) for row in probs], p)))
        assert got == want

    @pytest.mark.parametrize("steps", [1, 2, 7, 20])
    def test_ensemble_distributions_match_blocks_per_step(self, tmp_path, steps):
        specs = [DisorderSpec(p=p, steps=steps, master_seed=3) for p in (0.0, 1e-05, 0.5, 1.0)]
        results = run_ensembles(specs, COIN, 5)
        got = cone_text(_cone_rows(steps), ",".join(self.HEADER),
                        ((f"{r.p!r},", r.mean_probabilities) for r in results))
        want = csv_text(tmp_path, reference_write_csv, self.HEADER,
                        (b for r in results for b in reference_cone_blocks(r.mean_distributions, r.p)))
        assert got == want

    @pytest.mark.parametrize("steps", [1, 2, 5, 7, 8, 20])
    def test_evolve_block_matches_blocks_per_step(self, tmp_path, steps):
        pm = generate_phase_map(DisorderSpec(p=0.5, steps=steps, master_seed=2), 0)
        dists = [position_distribution(s) for s in evolve(steps, COIN, pm, steps)]
        header = ["step", "site", "probability"]
        probs = np.stack([d.probabilities for d in dists])
        assert (cone_text(_cone_rows(steps), ",".join(header), [("", probs)])
                == csv_text(tmp_path, reference_write_csv, header, reference_cone_blocks(dists)))

    @pytest.mark.parametrize("value", [1e-300, -0.0, math.nan])
    def test_a_structural_zero_must_hold_plus_zero(self, value):
        probs = np.stack([position_distribution(s).probabilities for s in evolve(4, COIN, None, 4)])
        rows = _cone_rows(4)
        rows.values(probs)
        probs[2, 4] = value  # step 3, site 0: inside the cone, of the wrong parity
        with pytest.raises(DomainError, match=r"\+0\.0"):
            rows.values(probs)

    def test_a_command_writes_no_file_from_a_bad_zero(self, tmp_path, monkeypatch, capsys):
        def negative_zero(*args):
            results = run_ensembles(*args)
            results[-1].mean_probabilities[1, 2] = -0.0  # step 2, site -1
            return results
        monkeypatch.setattr("pdqw.cli.run_ensembles", negative_zero)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("steps: 3\nn_maps: 2\np_grid: [0.0, 0.5]\n")
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 1
        assert "+0.0" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["ensemble.csv"]


class TestPairMatrixText:
    """The CLI's pair-matrix files against the window matrices placed on the
    whole lattice and written cell by cell."""

    @pytest.mark.parametrize("display", [False, True])
    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_files_match_the_broadcasting_writer(self, tmp_path, eta, display):
        steps, p_values = 5, [0.0, 1e-05, 0.5]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"steps: {steps}\nn_maps: 4\nmaster_seed: 8\np_values: [0.0, 1.0e-5, 0.5]\n"
                       f"two_photon: {{eta: {eta}, display_normalization: {str(display).lower()}}}\n")
        out = tmp_path / "out"
        assert main(["two-photon", "--config", str(cfg), "--out", str(out)]) == 0
        specs = [DisorderSpec(p=p, steps=steps, master_seed=8) for p in p_values]
        header = ["site_i", "site_j", "probability"] + (["probability_display"] if display else [])
        # The CLI's coin, which differs from hadamard_coin() in the last ulp.
        coin = coin_from_reflectivity(0.5)
        for p, ens in zip(p_values, run_pair_ensembles(specs, coin, 4, eta)):
            for n, (sites, window) in enumerate(zip(ens.window_sites, ens.window_matrices), start=1):
                full = np.zeros((2 * steps + 1, 2 * steps + 1))
                full[np.ix_(sites + steps, sites + steps)] = window
                i, j = np.triu_indices(2 * n + 1)
                prob = full[i + steps - n, j + steps - n]
                block = [i - n, j - n, prob]
                if display:
                    block.append(prob / full.max())
                name = f"two_photon_matrix_p{p:g}_step{n}.csv"
                assert ((out / name).read_text()
                        == csv_text(tmp_path, reference_write_csv, header, [block]))

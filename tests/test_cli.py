"""End-to-end CLI runs: outputs, manifests, determinism, exit codes."""

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pdqw
from pdqw import (
    DisorderSpec,
    coin_from_reflectivity,
    generate_phase_map,
    load_map,
    position_distribution,
    run_ensemble,
    run_ensembles,
    run_pair_ensembles,
    save_map,
    evolve,
)
from pdqw.cli import _build_parser, _parse_args, _peak_rss_mb, main
from pdqw.disorder import map_seeds

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

# The CLI always builds its coin from the reflectivity parameter; use the
# same constructor here (hadamard_coin() differs in the last ulp).
COIN = coin_from_reflectivity(0.5)


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestEvolve:
    def test_per_p_outputs_and_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path, "steps: 4\nn_maps: 5\nmaster_seed: 3\np_values: [0.0, 1.0]\n"
        )
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "evolve_p0.csv")
        assert header == ["step", "site", "probability"]
        assert {r[0] for r in rows} == {"1", "2", "3", "4"}
        for step, site, _ in rows:
            assert abs(int(site)) <= int(step)
        # step-1 masses of the ordered walk
        step1 = {int(r[1]): float(r[2]) for r in rows if r[0] == "1"}
        assert step1 == {-1: 0.5, 0: 0.0, 1: 0.5}

        manifest = json.loads((out / "manifest_evolve.json").read_text())
        assert manifest["tool"] == "pdqw"
        assert manifest["command"] == "evolve"
        assert manifest["config"]["steps"] == 4
        assert manifest["python"] == sys.version.split()[0]
        assert manifest["numpy"] == np.__version__
        for name, meta in manifest["outputs"].items():
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == meta["sha256"]
            assert meta["bytes"] == (out / name).stat().st_size

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is a Linux status field")
    def test_manifest_records_peak_rss(self, tmp_path):
        cfg = write_config(tmp_path, "steps: 3\np_values: [0.5]\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        peak = json.loads((out / "manifest_evolve.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0

    def test_peak_rss_is_null_without_a_status_file(self, tmp_path):
        assert _peak_rss_mb(str(tmp_path / "missing")) is None

    def test_explicit_map_file(self, tmp_path):
        pm = generate_phase_map(DisorderSpec(p=1.0, steps=3, master_seed=8), 0)
        map_path = tmp_path / "m.txt"
        save_map(pm, map_path)
        cfg = write_config(tmp_path, "steps: 3\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--map", str(map_path)]) == 0
        _, rows = read_csv(out / "evolve_map.csv")
        got = {int(r[1]): float(r[2]) for r in rows if r[0] == "3"}
        expect = position_distribution(evolve(3, COIN, load_map(map_path), 3)[-1])
        for site, prob in zip(expect.sites, expect.probabilities):
            if abs(site) <= 3:
                assert got[int(site)] == pytest.approx(prob, abs=1e-15)


class TestEnsemble:
    CFG = "steps: 3\nn_maps: 4\nmaster_seed: 5\np_grid: [0.0, 0.5, 1.0]\n"

    def test_values_match_library(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "ensemble.csv")
        assert header == ["p", "step", "mean_var", "std_var", "mean_var_normalized", "n_maps", "seed"]
        assert len(rows) == 3 * 3
        res = run_ensemble(DisorderSpec(p=0.5, steps=3, master_seed=5), COIN, 4)
        by_key = {(r[0], r[1]): r for r in rows}
        for n in range(3):
            row = by_key[("0.5", str(n + 1))]
            assert float(row[2]) == res.mean_variance[n]
            assert float(row[3]) == res.std_variance[n]
        # per-step peak across the grid normalizes to exactly 1
        for step in ("1", "2", "3"):
            peaks = [float(r[4]) for r in rows if r[1] == step]
            assert max(peaks) == 1.0

    @pytest.mark.parametrize("reflectivity", [0.0, 1.0])
    def test_a_zero_peak_normalizes_to_zero(self, tmp_path, reflectivity):
        # A coin that only transmits or only reflects walks each map the same
        # way at every p, so mean_var is 0 at every step; the normalized
        # column is 0.0 there, with no division warning (an error under the
        # suite's warning filter).
        cfg = write_config(tmp_path, f"steps: 3\nn_maps: 2\np_grid: [0.0, 1.0]\n"
                                     f"coin_reflectivity: {reflectivity}\n")
        out = tmp_path / "out"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "ensemble.csv")
        assert [(r[2], r[4]) for r in rows] == [("0.0", "0.0")] * 6

    def test_distribution_file_structure(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "ensemble_distributions.csv")
        assert header == ["p", "step", "site", "probability"]
        for p, step, site, prob in rows:
            assert abs(int(site)) <= int(step)
            assert 0.0 <= float(prob) <= 1.0

    def test_thread_count_keeps_bytes_identical(self, tmp_path):
        cfg = write_config(tmp_path, "steps: 4\nn_maps: 150\nmaster_seed: 2\np_grid: [0.0, 1.0]\n")
        out1, out4 = tmp_path / "a", tmp_path / "b"
        assert main(["ensemble", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["ensemble", "--config", cfg, "--out", str(out4), "--threads", "4"]) == 0
        for name in ("ensemble.csv", "ensemble_distributions.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


class TestBeta:
    def test_ordered_row_hits_frozen_exponent(self, tmp_path):
        cfg = write_config(tmp_path, "steps: 7\nn_maps: 3\nmaster_seed: 1\np_values: [0.0]\n")
        out = tmp_path / "out"
        assert main(["beta", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "beta.csv")
        assert header == ["p", "beta", "beta_stderr", "prefactor", "fit_lo", "fit_hi", "n_maps", "seed"]
        assert rows[0][0] == "0.0"
        assert float(rows[0][1]) == pytest.approx(1.693514775330979, abs=1e-8)
        assert (rows[0][4], rows[0][5]) == ("1", "7")

    def test_stderr_measures_the_power_law_misfit_not_sampling(self, tmp_path):
        # At p = 0 every map is the ordered walk, so the ensemble has no
        # spread at all; beta_stderr still reads the fit's own residuals.
        cfg = write_config(tmp_path, "steps: 7\nn_maps: 3\nmaster_seed: 1\np_values: [0.0]\n"
                                     "p_grid: [0.0, 1.0]\n")
        out = tmp_path / "out"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "ensemble.csv")
        assert [float(r[3]) for r in rows if r[0] == "0.0"] == [0.0] * 7
        assert main(["beta", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "beta.csv")
        assert float(rows[0][2]) > 0.1

    def test_default_fit_window_of_one_step_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # At steps 1 the default window (1, 1) holds one step: beta names
        # the field and exits 2 before it walks a map.
        walked = []
        monkeypatch.setattr("pdqw.cli.run_ensembles", lambda *args: walked.append(args))
        cfg = write_config(tmp_path, "steps: 1\nn_maps: 3\n")
        out = tmp_path / "out"
        assert main(["beta", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "fit_range" in err and "Traceback" not in err
        assert walked == []
        assert not (out / "beta.csv").exists()
        assert not (out / "manifest_beta.json").exists()

    def test_seed_override_recorded_and_effective(self, tmp_path):
        cfg = write_config(tmp_path, "steps: 4\nn_maps: 6\nmaster_seed: 1\np_values: [1.0]\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["beta", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["beta", "--config", cfg, "--out", str(out2), "--seed", "77"]) == 0
        manifest = json.loads((out2 / "manifest_beta.json").read_text())
        assert manifest["config"]["master_seed"] == 77
        assert manifest["overrides"]["seed"] == 77
        assert (out1 / "beta.csv").read_bytes() != (out2 / "beta.csv").read_bytes()


class TestCrossing:
    def test_scan_and_crossings(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "steps: 4\nn_maps: 60\nmaster_seed: 11\n"
            "p_grid: [0.0, 0.25, 0.5, 0.75, 1.0]\ncrossing_steps: [3, 4]\n",
        )
        out = tmp_path / "out"
        assert main(["crossing", "--config", cfg, "--out", str(out)]) == 0
        assert "low-resolution" in capsys.readouterr().err
        _, scan_rows = read_csv(out / "similarity_scan.csv")
        assert len(scan_rows) == 4 * 5
        _, cross_rows = read_csv(out / "crossing.csv")
        assert [r[0] for r in cross_rows] == ["3", "4"]
        for _, p_star in cross_rows:
            assert 0.0 < float(p_star) < 1.0

    def test_no_crossing_is_a_runtime_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "steps: 3\nn_maps: 10\nmaster_seed: 4\np_grid: [0.9, 0.95, 1.0]\ncrossing_steps: [3]\n",
        )
        assert main(["crossing", "--config", cfg, "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("reflectivity", [0.0, 1.0])
    def test_identical_curves_are_a_runtime_error(self, tmp_path, capsys, reflectivity):
        # Every map walks the same way, so both similarity curves are 1 at
        # every p: there is no crossing to report.
        cfg = write_config(tmp_path, f"steps: 3\nn_maps: 2\np_grid: [0.0, 0.5, 1.0]\n"
                                     f"crossing_steps: [3]\ncoin_reflectivity: {reflectivity}\n")
        out = tmp_path / "out"
        assert main(["crossing", "--config", cfg, "--out", str(out)]) == 1
        assert "found 0" in capsys.readouterr().err
        _, rows = read_csv(out / "similarity_scan.csv")
        assert {(r[2], r[3]) for r in rows} == {("1.0", "1.0")}
        assert not (out / "crossing.csv").exists()

    def test_default_crossing_steps_beyond_steps_is_a_usage_error(self, tmp_path, capsys):
        # The default crossing_steps [5, 6, 7] exceed steps 5: crossing names
        # the field and exits 2, and commands that never cross still run.
        cfg = write_config(tmp_path, "steps: 5\nn_maps: 3\np_grid: [0.0, 1.0]\n")
        out = tmp_path / "out"
        assert main(["crossing", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "crossing_steps" in err and "Traceback" not in err
        assert not (out / "similarity_scan.csv").exists()
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path):
        out = tmp_path / "out"
        good = write_config(
            tmp_path,
            "steps: 4\nn_maps: 60\nmaster_seed: 11\n"
            "p_grid: [0.0, 0.25, 0.5, 0.75, 1.0]\ncrossing_steps: [3, 4]\n",
            name="good.yaml",
        )
        assert main(["crossing", "--config", good, "--out", str(out)]) == 0
        assert (out / "manifest_crossing.json").exists()
        # No crossing on this grid: the scan is rewritten, then the run fails.
        bad = write_config(
            tmp_path,
            "steps: 3\nn_maps: 10\nmaster_seed: 4\np_grid: [0.9, 0.95, 1.0]\ncrossing_steps: [3]\n",
            name="bad.yaml",
        )
        assert main(["crossing", "--config", bad, "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["crossing.csv", "similarity_scan.csv"]
        _, rows = read_csv(out / "similarity_scan.csv")
        assert len(rows) == 3 * 3


class TestTwoPhotonCommands:
    def test_matrix_files_are_triangles(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "steps: 2\nn_maps: 3\nmaster_seed: 9\np_values: [1.0]\n"
            "two_photon: {display_normalization: true}\n",
        )
        out = tmp_path / "out"
        assert main(["two-photon", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "two_photon_matrix_p1_step2.csv")
        assert header == ["site_i", "site_j", "probability", "probability_display"]
        mass = 0.0
        for i, j, prob, disp in rows:
            assert int(i) <= int(j)
            mass += float(prob)
            assert 0.0 <= float(disp) <= 1.0
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert max(float(r[3]) for r in rows) == 1.0
        header, var_rows = read_csv(out / "two_photon_var2.csv")
        assert header == ["p", "step", "mean_var2", "std_var2", "n_maps", "seed"]
        assert len(var_rows) == 2

    def test_hom_curve(self, tmp_path):
        cfg = write_config(
            tmp_path, "two_photon: {delays: [-1.0, 0.0, 1.0]}\n"
        )
        out = tmp_path / "out"
        assert main(["hom", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "hom.csv")
        assert header == ["delay", "eta", "normalized_coincidence"]
        center = [r for r in rows if r[0] == "0.0"][0]
        assert float(center[1]) == 0.93
        assert float(center[2]) == pytest.approx(0.07, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coherence_time", [1e-300, 1.0])
    def test_far_delays_give_the_distinguishable_baseline(self, tmp_path, coherence_time):
        # (tau / tau_c) ** 2 would overflow here; the Gaussian is exactly 0.0.
        cfg = write_config(tmp_path, "two_photon: {delays: [-1.0e+308, 0.0, 1.0e+308], "
                                     f"coherence_time: {coherence_time!r}}}\n")
        out = tmp_path / "out"
        assert main(["hom", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "hom.csv")
        assert [r[0] for r in rows] == ["-1e+308", "0.0", "1e+308"]
        assert [r[1:] for r in rows[::2]] == [["0.0", "1.0"]] * 2
        assert float(rows[1][1]) == 0.93


class TestTextOracle:
    """The CLI's bytes against rows formatted one at a time. Both step
    counts run in one process, so text built for one call and reused by
    the next would show; 1e-05 is a p whose repr has an exponent."""

    P = [0.0, 1e-05, 0.5]
    STEPS = (3, 5)

    def config(self, tmp_path, steps):
        return write_config(
            tmp_path,
            f"steps: {steps}\nn_maps: 3\nmaster_seed: 11\np_grid: [0.0, 1.0e-5, 0.5]\n"
            "p_values: [0.0, 1.0e-5, 0.5]\ntwo_photon: {eta: 0.8, display_normalization: true}\n",
            name=f"steps{steps}.yaml",
        )

    @staticmethod
    def cone_rows(steps, probs):
        for n in range(1, steps + 1):
            for s in range(-n, n + 1):
                yield n, s, float(probs[n - 1, s + steps])

    @staticmethod
    def text(header, rows):
        return "".join(line + "\n" for line in [header, *rows])

    def test_ensemble_and_evolve_files(self, tmp_path):
        for n_steps in self.STEPS:
            out = tmp_path / f"out{n_steps}"
            cfg = self.config(tmp_path, n_steps)
            assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
            assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
            specs = [DisorderSpec(p=p, steps=n_steps, master_seed=11) for p in self.P]
            results = run_ensembles(specs, COIN, 3)
            want = self.text("p,step,site,probability", (
                f"{r.p!r},{n},{s},{v!r}"
                for r in results for n, s, v in self.cone_rows(n_steps, r.mean_probabilities)
            ))
            assert (out / "ensemble_distributions.csv").read_text() == want
            peak = np.max([r.mean_variance for r in results], axis=0)
            want = self.text("p,step,mean_var,std_var,mean_var_normalized,n_maps,seed", (
                f"{r.p!r},{n + 1},{r.mean_variance[n].item()!r},{r.std_variance[n].item()!r},"
                f"{(r.mean_variance[n] / peak[n]).item()!r},3,11"
                for r in results for n in range(n_steps)
            ))
            assert (out / "ensemble.csv").read_text() == want
            for spec in specs:
                probs = np.stack([position_distribution(st).probabilities
                                  for st in evolve(n_steps, COIN, generate_phase_map(spec, 0), n_steps)])
                want = self.text("step,site,probability",
                                 (f"{n},{s},{v!r}" for n, s, v in self.cone_rows(n_steps, probs)))
                assert (out / f"evolve_p{spec.p:g}.csv").read_text() == want

    def test_two_photon_files(self, tmp_path):
        for n_steps in self.STEPS:
            out = tmp_path / f"out{n_steps}"
            assert main(["two-photon", "--config", self.config(tmp_path, n_steps), "--out", str(out)]) == 0
            specs = [DisorderSpec(p=p, steps=n_steps, master_seed=11) for p in self.P]
            results = run_pair_ensembles(specs, COIN, 3, 0.8)
            for p, ens in zip(self.P, results):
                for n, (sites, m) in enumerate(zip(ens.window_sites, ens.window_matrices), start=1):
                    at = {s: k for k, s in enumerate(sites.tolist())}
                    peak = float(m.max())
                    rows = []
                    for i in range(-n, n + 1):
                        for j in range(i, n + 1):
                            v = float(m[at[i], at[j]]) if i in at and j in at else 0.0
                            rows.append(f"{i},{j},{v!r},{v / peak if peak > 0 else 0.0!r}")
                    want = self.text("site_i,site_j,probability,probability_display", rows)
                    assert (out / f"two_photon_matrix_p{p:g}_step{n}.csv").read_text() == want
            want = self.text("p,step,mean_var2,std_var2,n_maps,seed", (
                f"{p!r},{n + 1},{ens.mean_variance2[n].item()!r},{ens.std_variance2[n].item()!r},3,11"
                for p, ens in zip(self.P, results) for n in range(n_steps)
            ))
            assert (out / "two_photon_var2.csv").read_text() == want


class TestManifestTelemetry:
    CFG = ("steps: 4\nn_maps: 60\nmaster_seed: 11\np_values: [0.0, 0.5, 1.0]\n"
           "p_grid: [0.0, 0.25, 0.5, 0.75, 1.0]\ncrossing_steps: [3, 4]\n")

    @pytest.mark.parametrize("command", ["ensemble", "beta", "crossing", "two-photon"])
    def test_scans_record_their_largest_norm_drift(self, tmp_path, command):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / f"manifest_{command.replace('-', '_')}.json").read_text())
        drift = manifest["max_norm_drift"]
        assert isinstance(drift, float) and np.isfinite(drift)
        assert 0.0 <= drift < 1e-12

    def test_drift_is_the_largest_of_the_scan(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        drifts = [run_ensemble(DisorderSpec(p=p, steps=4, master_seed=11), COIN, 60).max_norm_drift
                  for p in grid]
        manifest = json.loads((out / "manifest_ensemble.json").read_text())
        assert manifest["max_norm_drift"] == max(drifts)

    def test_single_walks_record_none(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert "max_norm_drift" not in json.loads((out / "manifest_evolve.json").read_text())


class TestManifestOutputs:
    """Every command's manifest: the sha256 and size of each output, taken
    as it is written, against the files on disk, and the writing time."""

    # No crossing at step 2: the two similarity curves are equal on this grid there.
    CFG = ("steps: 3\nn_maps: 3\nmaster_seed: 5\np_values: [0.0, 0.5, 1.0]\n"
           "p_grid: [0.0, 0.5, 1.0]\ncrossing_steps: [3]\nfit_range: [1, 3]\n"
           "two_photon: {display_normalization: true}\n")

    def run(self, tmp_path, command):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        argv = command.split()
        if argv[1:] == ["--map"]:
            map_path = tmp_path / "m.txt"
            save_map(generate_phase_map(DisorderSpec(p=0.5, steps=3, master_seed=5), 0), map_path)
            argv.append(str(map_path))
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
        return out, json.loads((out / f"manifest_{argv[0].replace('-', '_')}.json").read_text())

    @pytest.mark.parametrize("command", ["evolve", "evolve --map", "ensemble", "beta", "crossing",
                                         "two-photon", "hom", "gen-maps"])
    def test_hashes_match_the_files(self, tmp_path, command):
        out, manifest = self.run(tmp_path, command)
        written = {p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and not p.name.startswith("manifest_")}
        assert set(manifest["outputs"]) == written
        for name, meta in manifest["outputs"].items():
            data = (out / name).read_bytes()
            assert meta == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    @pytest.mark.parametrize("command", ["evolve", "evolve --map", "ensemble", "beta", "crossing",
                                         "two-photon", "hom", "gen-maps"])
    def test_write_time_lies_within_the_total(self, tmp_path, command):
        _, manifest = self.run(tmp_path, command)
        timings = manifest["timings_seconds"]
        assert set(timings) == {"total", "write"}
        assert 0.0 <= timings["write"] <= timings["total"]


class TestGenMaps:
    def test_files_round_trip_to_the_generator(self, tmp_path):
        cfg = write_config(tmp_path, "steps: 3\nn_maps: 3\nmaster_seed: 6\np_values: [0.5]\n")
        out = tmp_path / "out"
        assert main(["gen-maps", "--config", cfg, "--out", str(out)]) == 0
        spec = DisorderSpec(p=0.5, steps=3, master_seed=6)
        for k in range(3):
            path = out / "maps" / "p0.5" / f"map_{k:05d}.txt"
            assert load_map(path) == generate_phase_map(spec, k)
        manifest = json.loads((out / "manifest_gen_maps.json").read_text())
        assert len(manifest["outputs"]) == 3

    @pytest.mark.parametrize("mode", ["bernoulli", "exact_fraction"])
    def test_blocks_write_the_files_of_single_maps(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr("pdqw.cli.chunk_maps", lambda steps: 2)  # blocks of 2, 2 and 1 maps
        cfg = write_config(tmp_path, f"steps: 3\nn_maps: 5\nmaster_seed: {2**32}\n"
                                     f"p_values: [0.3, 1.0]\nsampling_mode: {mode}\n")
        out = tmp_path / "out"
        assert main(["gen-maps", "--config", cfg, "--out", str(out)]) == 0
        for p in (0.3, 1.0):
            spec = DisorderSpec(p=p, steps=3, sampling_mode=mode, master_seed=2**32)
            for k in range(5):
                save_map(generate_phase_map(spec, k), tmp_path / "single.txt")
                written = out / "maps" / f"p{p:g}" / f"map_{k:05d}.txt"
                assert written.read_bytes() == (tmp_path / "single.txt").read_bytes()

    def test_each_block_is_seeded_once(self, tmp_path, monkeypatch):
        # One seeding pass and one bernoulli draw per block serve every p.
        monkeypatch.setattr("pdqw.cli.chunk_maps", lambda steps: 2)  # blocks of 2, 2 and 1 maps
        seeded, drawn = [], []

        def counted(master, start, stop):
            seeded.append((start, stop))
            return map_seeds(master, start, stop)

        def recording(real):
            def draw(steps, n_letters, seeds, at):
                drawn.append(seeded[-1])
                return real(steps, n_letters, seeds, at)
            return draw

        monkeypatch.setattr("pdqw.disorder.map_seeds", counted)
        monkeypatch.setattr("pdqw.disorder._draw", recording(pdqw.disorder._draw))
        cfg = write_config(tmp_path, "steps: 3\nn_maps: 5\nmaster_seed: 6\np_values: [0.3, 1.0]\n")
        assert main(["gen-maps", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert seeded == drawn == [(0, 2), (2, 4), (4, 5)]

    def test_fractional_pi_alphabet_maps_evolve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "steps: 4\nn_maps: 2\nmaster_seed: 6\np_values: [0.9]\nalphabet: [0, 0.5, pi]\n",
        )
        out = tmp_path / "out"
        assert main(["gen-maps", "--config", cfg, "--out", str(out)]) == 0
        spec = DisorderSpec(p=0.9, steps=4, alphabet=(0.0, 0.5 * np.pi, np.pi), master_seed=6)
        for k in range(2):
            path = out / "maps" / "p0.9" / f"map_{k:05d}.txt"
            saved = generate_phase_map(spec, k)
            assert (saved.codes == 2).any()  # letter 1, 0.5 pi
            back = load_map(path)
            assert back == saved
            assert main(["evolve", "--config", cfg, "--out", str(out), "--map", str(path)]) == 0

    def test_a_failed_write_leaves_no_truncated_map(self, tmp_path):
        pytest.importorskip("resource")
        # With the file-size limit between the sizes of the p = 0 and p = 1
        # maps, the run writes every p = 0 map and then fails partway
        # through the first p = 1 map, with EFBIG.
        cfg = write_config(
            tmp_path,
            "steps: 3\nn_maps: 2\nmaster_seed: 6\np_values: [0.0, 1.0]\nalphabet: [0, 0.5, pi]\n",
        )
        specs = {p: DisorderSpec(p=p, steps=3, alphabet=(0.0, 0.5 * np.pi, np.pi), master_seed=6)
                 for p in (0.0, 1.0)}
        sizes = {}
        for p, spec in specs.items():
            for k in range(2):
                save_map(generate_phase_map(spec, k), tmp_path / "probe.txt")
                sizes.setdefault(p, []).append((tmp_path / "probe.txt").stat().st_size)
        limit = max(sizes[0.0])
        assert limit < min(sizes[1.0])
        out = tmp_path / "out"
        child = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from pdqw.cli import main\n"
            f"sys.exit(main(['gen-maps', '--config', {cfg!r}, '--out', {str(out)!r}]))\n"
        )
        package_root = str(Path(pdqw.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
            [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
        assert proc.returncode == 1, proc.stderr
        assert "pdqw gen-maps: error" in proc.stderr
        for k in range(2):
            assert load_map(out / "maps" / "p0" / f"map_{k:05d}.txt") == generate_phase_map(specs[0.0], k)
        assert list((out / "maps" / "p1").iterdir()) == []
        assert not list(out.rglob("*.tmp"))
        assert not (out / "manifest_gen_maps.json").exists()


class TestFailureModes:
    def test_missing_config_file(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, "stepz: 3\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "text, field",
        [("n_max: 7\n", "n_max"), ("two_photon: {enabled: true}\n", "enabled")],
        ids=["n_max", "two_photon.enabled"],
    )
    def test_removed_config_fields_are_rejected(self, tmp_path, capsys, text, field):
        cfg = write_config(tmp_path, "steps: 2\n" + text)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        ["{start: 0.0, stop: 1.0e+308, step: 1.0e-308}", "{step: 1.0e-12}"],
        ids=["overflowing-span", "10**12-points"],
    )
    def test_p_grid_mappings_too_long_to_be_distinct_are_rejected_unbuilt(self, tmp_path, capsys, grid):
        # An infinite span once overflowed math.floor, and 10**12 points
        # were built before the distinctness check could reject them.
        cfg = write_config(tmp_path, f"steps: 3\nn_maps: 2\np_grid: {grid}\n")
        started = time.perf_counter()
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "config field 'p_grid'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0\n0 0 0 0 0\n", 6),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=nan\n0 0 0\n0 0 0 0 0\n", 5),
            ("steps=2\np=0.5\nseed=1\nmode=bernoulli\nalphabet=0,pi\n0 0 0\n0 \u00b5 0 0 0\n", 7),
        ],
        ids=["short-row", "nan-alphabet", "non-ascii"],
    )
    def test_corrupt_map_file(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        cfg = write_config(tmp_path, "steps: 2\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out"), "--map", str(bad)]) == 2
        assert f"line {line}:" in capsys.readouterr().err

    def test_map_shorter_than_steps_is_a_usage_error(self, tmp_path, capsys):
        short = tmp_path / "short.txt"
        save_map(generate_phase_map(DisorderSpec(p=0.5, steps=2, master_seed=1), 0), short)
        cfg = write_config(tmp_path, "steps: 7\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--map", str(short)]) == 2
        assert "phase map has 2 rows but 7 steps were requested" in capsys.readouterr().err
        assert not (out / "evolve_map.csv").exists()

    @pytest.mark.parametrize(
        "command, text, field",
        [
            ("ensemble", "alphabet: [.nan]\n", "alphabet"),
            ("ensemble", "alphabet: [\"inf\"]\n", "alphabet"),
            ("ensemble", "p_grid: {stop: .nan}\n", "p_grid.stop"),
            ("hom", "two_photon: {coherence_time: .nan}\n", "two_photon.coherence_time"),
        ],
        ids=["nan-alphabet", "inf-alphabet", "nan-p_grid-stop", "nan-coherence_time"],
    )
    def test_non_finite_config_values_are_usage_errors(self, tmp_path, capsys, command, text, field):
        cfg = write_config(tmp_path, "steps: 2\nn_maps: 2\np_grid: [0.0, 1.0]\n" + text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("command", ["evolve", "two-photon", "gen-maps"])
    @pytest.mark.parametrize("p_values", ["[0.1, 0.10000001]", "[0.3, 0.3]"], ids=["same-tag", "duplicate"])
    def test_p_values_sharing_a_file_tag_are_usage_errors(self, tmp_path, capsys, command, p_values):
        cfg = write_config(tmp_path, f"steps: 3\nn_maps: 2\np_values: {p_values}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config field 'p_values'" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_bad_thread_count(self, tmp_path):
        cfg = write_config(tmp_path, "steps: 2\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "0"]) == 2

    def test_bad_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, "steps: 2\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "steps: 2\n")
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert main(["evolve", "--config", cfg, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("pdqw evolve: error")
        assert taken.read_text() == "not a directory\n"

    def test_unwritable_output_is_a_run_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "steps: 2\nn_maps: 2\np_grid: [0.0, 1.0]\n")
        out = tmp_path / "bad"
        (out / "ensemble.csv").mkdir(parents=True)
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pdqw ensemble: error: ")
        assert "Traceback" not in err
        # The partial temporary file is gone, and no manifest was written.
        assert [p.name for p in out.iterdir()] == ["ensemble.csv"]


class TestParser:
    COMMON = [("-h", "--help"), ("--config",), ("--seed",), ("--threads",), ("--out",)]
    COMMANDS = ["evolve", "ensemble", "beta", "crossing", "two-photon", "hom", "gen-maps"]

    @staticmethod
    def subcommands():
        parser = _build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_each_subcommand_takes_the_shared_options_in_order(self):
        commands = self.subcommands()
        assert list(commands) == self.COMMANDS
        for name, cmd in commands.items():
            extra = [("--map",)] if name == "evolve" else []
            assert [tuple(a.option_strings) for a in cmd._actions] == self.COMMON + extra

    def test_shared_options_parse_per_subcommand(self):
        for name in self.COMMANDS:
            args = _build_parser().parse_args([name, "--config", "c.yaml", "--seed", "5", "--threads", "2",
                                               "--out", "o"])
            got = (args.command, args.config, args.seed, args.threads, args.out)
            assert got == (name, "c.yaml", 5, 2, "o")
            defaults = _build_parser().parse_args([name, "--config", "c.yaml"])
            assert (defaults.seed, defaults.threads, defaults.out) == (None, 1, None)
        assert _build_parser().parse_args(["evolve", "--config", "c", "--map", "m"]).map == "m"

    def test_config_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["crossing"])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    # Argument lists that the parser answers itself: help, the version and
    # usage errors, for every command and for no command or an unknown one.
    # tools/compare_outputs.py asks both revisions the same ones.
    ANSWERED = compare_outputs.ANSWERED

    @pytest.mark.parametrize("argv", ANSWERED, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_main_answers_as_the_full_parser(self, argv, capsys):
        # main builds only the invoked command's parser; what it prints and
        # its exit status are the full parser's.
        with pytest.raises(SystemExit) as expected:
            _build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert (got.value.code, *capsys.readouterr()) == (expected.value.code, *want)

    @pytest.mark.parametrize("argv", [
        [name, "--config", "c.yaml", "--seed", "5", "--threads", "2", "--out", "o"] for name in COMMANDS
    ] + [["evolve", "--config", "c", "--map", "m"], ["hom", "--conf", "c", "--se", "-3"]],
        ids=lambda argv: " ".join(argv))
    def test_arguments_parse_as_in_the_full_parser(self, argv):
        assert vars(_parse_args(argv)) == vars(_build_parser().parse_args(argv))


class TestEntryPoint:
    def test_module_invocation_reports_version(self):
        # The child imports the same pdqw as this process, also when only
        # pytest's own path settings put it on sys.path.
        package_root = str(Path(pdqw.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "pdqw.cli", "--version"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("0.1.0")

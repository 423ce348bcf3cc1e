"""Configuration parsing: defaults, overrides, and loud failures."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from pdqw import ConfigError
from pdqw.config import SimulationConfig, TwoPhotonSettings, config_echo, config_from_dict, load_config


class TestDefaults:
    def test_experiment_scale_defaults(self):
        cfg = SimulationConfig()
        assert cfg.steps == 7
        assert cfg.p_values == [0.0, 0.05, 0.10, 0.20, 1.0]
        assert cfg.n_maps == 1000
        assert cfg.master_seed == 1
        assert cfg.coin_reflectivity == 0.5
        assert cfg.sampling_mode == "bernoulli"
        assert cfg.alphabet == (0.0, math.pi)
        assert cfg.crossing_steps == [5, 6, 7]
        assert cfg.two_photon.visibility == 0.93

    def test_effective_values(self):
        cfg = SimulationConfig()
        assert cfg.effective_fit_range() == (1, 7)
        cfg = config_from_dict({"steps": 20})
        assert cfg.effective_fit_range() == (1, 7)
        cfg = config_from_dict({"steps": 4})
        assert cfg.effective_fit_range() == (1, 4)

    def test_default_p_grid_is_percent_resolution(self):
        cfg = SimulationConfig()
        assert len(cfg.p_grid) == 101
        assert cfg.p_grid[0] == 0.0
        assert cfg.p_grid[-1] == 1.0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        assert load_config(path) == SimulationConfig()


class TestParsing:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "steps: 5\n"
            "n_maps: 20\n"
            "master_seed: 9\n"
            "p_values: [0.0, 1.0]\n"
            "coin_reflectivity: 0.45\n"
            "sampling_mode: exact_fraction\n"
            "fit_range: [2, 5]\n"
            "p_grid: {start: 0.0, stop: 1.0, step: 0.25}\n"
            "crossing_steps: [4, 5]\n"
            "two_photon: {eta: 0.8, delays: [-1.0, 0.0, 1.0]}\n"
            "output_dir: results\n"
        )
        cfg = load_config(path)
        assert cfg.steps == 5
        assert cfg.fit_range == (2, 5)
        assert cfg.p_grid == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert cfg.two_photon.eta == 0.8
        assert cfg.output_dir == "results"

    @pytest.mark.parametrize(
        "grid, expected",
        [
            ({"stop": 0.5, "step": 0.3}, [0.0, 0.3]),
            ({"stop": 1.0, "step": 0.6}, [0.0, 0.6]),
            ({"start": 0.1, "stop": 0.4, "step": 0.1}, [0.1, 0.2, 0.3, 0.4]),
            *(({"step": step}, [round(k * step, 10) for k in range(round(1 / step) + 1)])
              for step in (0.01, 0.02, 0.05, 0.1, 0.25)),
        ],
    )
    def test_p_grid_mapping_never_passes_stop(self, grid, expected):
        # A step that does not divide the range stops short of stop; one
        # that does keeps stop as its last point despite float round-off.
        assert config_from_dict({"p_grid": grid}).p_grid == expected

    def test_alphabet_tokens_are_pi_multiples(self):
        cfg = config_from_dict({"alphabet": [0, "pi", 0.5]})
        assert cfg.alphabet == (0.0, math.pi, 0.5 * math.pi)

    @pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data").glob("*.yaml")),
                             ids=lambda path: path.name)
    def test_both_yaml_loaders_give_the_same_config(self, path, monkeypatch):
        fast = load_config(path)
        assert fast == config_from_dict(yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader))
        # Where PyYAML lacks libyaml, the pure-Python loader parses it.
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_config(path) == fast

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    @pytest.mark.parametrize("text, field, value", [
        ("p_values: [1e-05, 0.5]", "p_values", [1e-05, 0.5]),
        ("p_grid: [0.0, 1e-05, 1.5e-1, 2E-1]", "p_grid", [0.0, 1e-05, 0.15, 0.2]),
        ("p_grid: {start: 0, stop: 1e0, step: 5e-1}", "p_grid", [0.0, 0.5, 1.0]),
        ("coin_reflectivity: 45e-2", "coin_reflectivity", 0.45),
        ("two_photon: {eta: 8e-1}", "eta", 0.8),
        ("two_photon: {delays: [-1e1, 0, +2e+0]}", "delays", [-10.0, 0.0, 2.0]),
    ], ids=["p_values", "p_grid", "p_grid-mapping", "coin_reflectivity", "eta", "delays"])
    def test_exponents_without_a_dot_are_numbers(self, tmp_path, monkeypatch, libyaml, text, field, value):
        # YAML 1.1 reads 1e-05 as a string; both loaders read it as a float.
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "cfg.yaml"
        path.write_text(text + "\n")
        cfg = load_config(path)
        assert getattr(cfg.two_photon if field in ("eta", "delays") else cfg, field) == value

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    @pytest.mark.parametrize("text, needle", [
        ("n_maps: 1e3", "expected an integer, got 1000.0"),
        ("p_values: ['1e-05']", "expected a finite number, got '1e-05'"),
    ], ids=["float-n_maps", "quoted-exponent"])
    def test_exponents_stay_what_their_field_rejects(self, tmp_path, monkeypatch, libyaml, text, needle):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "cfg.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=re.escape(needle)):
            load_config(path)

    def test_exponents_leave_the_yaml_loaders_as_they_are(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("p_values: [1e-05]\n")
        load_config(path)
        for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
            assert yaml.load("1e-05", Loader=loader) == "1e-05"

    def test_invalid_yaml_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("steps: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("content", [b"steps: 3\n# \xff\n", b"steps: 1" + b"0" * 5000 + b"\n"],
                             ids=["not-utf8", "5001-digit-int"])
    def test_undecodable_file_is_a_config_error(self, tmp_path, content):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="<file>"):
            load_config(path)


class TestRejection:
    @pytest.mark.parametrize(
        "data,needle",
        [
            ({"stepz": 3}, "stepz"),
            ({"steps": 0}, "steps"),
            ({"steps": 2.5}, "steps"),
            # n_max and two_photon.enabled were removed: they never changed an output.
            ({"n_max": 9, "steps": 5}, "n_max"),
            ({"p_values": []}, "p_values"),
            ({"p_values": [1.5]}, "p_values"),
            # Output files are named by f"{p:g}": two p with one tag would share a file.
            ({"p_values": [0.1, 0.10000001]}, "p_values"),
            ({"p_values": [0.5, 0.0, 0.5]}, "p_values"),
            ({"n_maps": 0}, "n_maps"),
            ({"master_seed": -1}, "master_seed"),
            ({"master_seed": 2**64}, "master_seed"),
            ({"coin_reflectivity": 1.2}, "coin_reflectivity"),
            ({"coin_reflectivity": 10**400}, "coin_reflectivity"),
            ({"sampling_mode": "sobol"}, "sampling_mode"),
            ({"alphabet": []}, "alphabet"),
            ({"alphabet": ["tau"]}, "alphabet"),
            ({"alphabet": [0] * 128}, "alphabet"),
            ({"alphabet": [float("nan")]}, "alphabet"),
            ({"alphabet": ["inf"]}, "alphabet"),
            ({"alphabet": [0, float("-inf")]}, "alphabet"),
            ({"fit_range": [3]}, "fit_range"),
            ({"fit_range": [0, 5]}, "fit_range"),
            ({"fit_range": [5, 5]}, "fit_range"),
            ({"fit_range": [2, 9], "steps": 7}, "fit_range"),
            ({"p_grid": [0.5]}, "p_grid"),
            ({"p_grid": [0.2, 0.1]}, "p_grid"),
            ({"p_grid": [0.0, 2.0]}, "p_grid"),
            ({"p_grid": {"start": 0.5, "stop": 0.1}}, "p_grid"),
            ({"p_grid": {"step": -1}}, "p_grid"),
            ({"p_grid": {"stop": float("nan")}}, "p_grid.stop"),
            ({"p_grid": {"step": float("inf")}}, "p_grid.step"),
            ({"p_grid": "dense"}, "p_grid"),
            ({"crossing_steps": []}, "crossing_steps"),
            ({"crossing_steps": [9], "steps": 7}, "crossing_steps"),
            ({"two_photon": {"gamma": 1}}, "two_photon"),
            ({"two_photon": {"eta": 2.0}}, "eta"),
            ({"two_photon": {"visibility": -0.1}}, "visibility"),
            ({"two_photon": {"coherence_time": 0}}, "coherence_time"),
            ({"two_photon": {"coherence_time": float("nan")}}, "coherence_time"),
            ({"two_photon": {"delays": [0.0, float("nan")]}}, "delays"),
            ({"two_photon": {"delays": []}}, "delays"),
            ({"two_photon": {"enabled": True}}, "enabled"),
            ({"two_photon": 3}, "two_photon"),
            ({"output_dir": ""}, "output_dir"),
            # New cases go last: the case names carry their index in this list.
            ({"p_grid": [0.1, 0.1, 0.2]}, "p_grid"),
        ],
    )
    def test_bad_values_name_the_field(self, data, needle):
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert needle in str(err.value)

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])


class TestEcho:
    def test_echo_is_json_ready_and_complete(self):
        cfg = config_from_dict({"steps": 5, "alphabet": [0, "pi"]})
        echo = config_echo(cfg)
        assert echo["steps"] == 5
        assert echo["alphabet_pi_units"] == [0.0, 1.0]
        assert echo["fit_range"] == [1, 5]
        assert "n_max" not in echo and "enabled" not in echo["two_photon"]
        json.dumps(echo)

    def test_keys_are_the_dataclass_fields(self):
        echo = config_echo(SimulationConfig())
        top = {"alphabet_pi_units" if f.name == "alphabet" else f.name for f in fields(SimulationConfig)}
        assert set(echo) == top
        assert set(echo["two_photon"]) == {f.name for f in fields(TwoPhotonSettings)}

    def test_a_config_that_sets_every_field_echoes_each_value(self):
        two_photon = {"eta": 0.8, "visibility": 0.9, "coherence_time": 2.5,
                      "delays": [-1.0, 0.0, 2.0], "display_normalization": True}
        data = {
            "steps": 9, "p_values": [0.15, 0.75], "n_maps": 17, "master_seed": 2**40 + 3,
            "coin_reflectivity": 0.3, "sampling_mode": "exact_fraction", "alphabet": [0.5, "pi"],
            "fit_range": [2, 8], "p_grid": [0.0, 0.4, 0.8], "crossing_steps": [3, 9],
            "two_photon": two_photon, "output_dir": "runs/x",
        }
        assert set(data) == {f.name for f in fields(SimulationConfig)}
        assert set(two_photon) == {f.name for f in fields(TwoPhotonSettings)}
        cfg, default = config_from_dict(data), SimulationConfig()
        # No value is a default, so an echo that fell back to one would show.
        for f in fields(SimulationConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        for f in fields(TwoPhotonSettings):
            assert getattr(cfg.two_photon, f.name) != getattr(default.two_photon, f.name), f.name
        expected = {**data, "alphabet_pi_units": [0.5, 1.0]}
        del expected["alphabet"]
        echo = config_echo(cfg)
        assert echo == expected
        assert json.loads(json.dumps(echo)) == expected

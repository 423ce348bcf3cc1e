"""Run configuration: a single YAML file drives every CLI subcommand.

Unknown keys are rejected and every validation error names the offending
field, so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .disorder import SAMPLING_MODES, check_alphabet, parse_alphabet_token
from .errors import ConfigError, DomainError


def _parse_alphabet_value(value) -> float:
    # Bare numbers are multiples of pi, same convention as map files.
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError("alphabet", f"alphabet entries must be numbers or 'pi', got {value!r}")
    try:
        return parse_alphabet_token(str(value).strip())
    except ValueError:
        raise ConfigError("alphabet", f"bad alphabet token {value!r}") from None


@dataclass
class TwoPhotonSettings:
    eta: float = 1.0
    visibility: float = 0.93
    coherence_time: float = 1.0
    delays: list[float] = field(default_factory=lambda: list(np.linspace(-3.0, 3.0, 61)))
    display_normalization: bool = False


@dataclass
class SimulationConfig:
    """Validated run parameters; defaults reproduce the experiment's scale."""

    steps: int = 7
    p_values: list[float] = field(default_factory=lambda: [0.0, 0.05, 0.10, 0.20, 1.0])
    n_maps: int = 1000
    master_seed: int = 1
    coin_reflectivity: float = 0.5
    sampling_mode: str = "bernoulli"
    alphabet: tuple[float, ...] = (0.0, math.pi)
    fit_range: tuple[int, int] | None = None
    p_grid: list[float] = field(default_factory=lambda: [round(0.01 * k, 10) for k in range(101)])
    crossing_steps: list[int] = field(default_factory=lambda: [5, 6, 7])
    two_photon: TwoPhotonSettings = field(default_factory=TwoPhotonSettings)
    output_dir: str = "out"

    def effective_fit_range(self) -> tuple[int, int]:
        if self.fit_range is not None:
            return self.fit_range
        return (1, min(7, self.steps))

    def check_fit_range(self) -> None:
        """Raise unless the fit window holds at least two steps; the default
        window (1, min(7, steps)) holds one at steps 1. A given fit_range is
        checked when the config is read."""
        lo, hi = self.effective_fit_range()
        if hi <= lo:
            raise ConfigError("fit_range", f"the default window ({lo}, {hi}) holds one step; "
                                           "a beta fit needs steps >= 2")

    def check_crossing_steps(self) -> None:
        """Raise unless every crossing step lies in 1..steps; the default
        list can exceed a small `steps`."""
        bad = [n for n in self.crossing_steps if not 1 <= n <= self.steps]
        if bad:
            raise ConfigError("crossing_steps", f"entries must lie in 1..steps ({self.steps}), got {bad}")


_TOP_KEYS = {
    "steps", "p_values", "n_maps", "master_seed", "coin_reflectivity",
    "sampling_mode", "alphabet", "fit_range", "p_grid", "crossing_steps",
    "two_photon", "output_dir",
}
_TWO_PHOTON_KEYS = {
    "eta", "visibility", "coherence_time", "delays", "display_normalization",
}


def p_tag(p: float) -> str:
    """A dilution's tag in output file names; p_values must not share one."""
    return f"{p:g}"


def _as_int(value, field_name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field_name, f"expected an integer, got {value!r}")
    return value


def _as_number(value, field_name: str) -> float:
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(field_name, f"expected a finite number, got {value!r}")


def _parse_p_grid(raw) -> list[float]:
    if isinstance(raw, dict):
        unknown = set(raw) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError("p_grid", f"unknown keys {sorted(unknown)}")
        start = _as_number(raw.get("start", 0.0), "p_grid.start")
        stop = _as_number(raw.get("stop", 1.0), "p_grid.stop")
        step = _as_number(raw.get("step", 0.01), "p_grid.step")
        if step <= 0 or stop < start:
            raise ConfigError("p_grid", "need step > 0 and stop >= start")
        # Floor, not round, so no point lies past stop; the tolerance keeps
        # the last point of grids such as 0.3/0.1 = 2.9999999999999996.
        count = math.floor((stop - start) / step + 1e-9)
        grid = [round(start + k * step, 10) for k in range(count + 1)]
    elif isinstance(raw, list):
        grid = [_as_number(v, "p_grid") for v in raw]
    else:
        raise ConfigError("p_grid", f"expected a list or start/stop/step mapping, got {raw!r}")
    if len(grid) < 2:
        raise ConfigError("p_grid", "needs at least 2 points")
    if any(not 0.0 <= p <= 1.0 for p in grid):
        raise ConfigError("p_grid", "entries must lie in [0, 1]")
    if sorted(set(grid)) != grid:
        raise ConfigError("p_grid", "entries must be strictly increasing")
    return grid


def _parse_two_photon(raw) -> TwoPhotonSettings:
    if not isinstance(raw, dict):
        raise ConfigError("two_photon", f"expected a mapping, got {raw!r}")
    unknown = set(raw) - _TWO_PHOTON_KEYS
    if unknown:
        raise ConfigError("two_photon", f"unknown keys {sorted(unknown)}")
    tp = TwoPhotonSettings()
    if "eta" in raw:
        tp.eta = _as_number(raw["eta"], "two_photon.eta")
        if not 0.0 <= tp.eta <= 1.0:
            raise ConfigError("two_photon.eta", f"must lie in [0, 1], got {tp.eta}")
    if "visibility" in raw:
        tp.visibility = _as_number(raw["visibility"], "two_photon.visibility")
        if not 0.0 <= tp.visibility <= 1.0:
            raise ConfigError("two_photon.visibility", f"must lie in [0, 1], got {tp.visibility}")
    if "coherence_time" in raw:
        tp.coherence_time = _as_number(raw["coherence_time"], "two_photon.coherence_time")
        if tp.coherence_time <= 0:
            raise ConfigError("two_photon.coherence_time", "must be positive")
    if "delays" in raw:
        if not isinstance(raw["delays"], list) or not raw["delays"]:
            raise ConfigError("two_photon.delays", "expected a non-empty list")
        tp.delays = [_as_number(v, "two_photon.delays") for v in raw["delays"]]
    if "display_normalization" in raw:
        if not isinstance(raw["display_normalization"], bool):
            raise ConfigError("two_photon.display_normalization", "expected true/false")
        tp.display_normalization = raw["display_normalization"]
    return tp


def config_from_dict(data: dict) -> SimulationConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", f"config must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config field")

    cfg = SimulationConfig()
    if "steps" in data:
        cfg.steps = _as_int(data["steps"], "steps")
        if cfg.steps < 1:
            raise ConfigError("steps", f"must be >= 1, got {cfg.steps}")
    if "p_values" in data:
        if not isinstance(data["p_values"], list) or not data["p_values"]:
            raise ConfigError("p_values", "expected a non-empty list")
        cfg.p_values = [_as_number(v, "p_values") for v in data["p_values"]]
        if any(not 0.0 <= p <= 1.0 for p in cfg.p_values):
            raise ConfigError("p_values", "entries must lie in [0, 1]")
        tags = [p_tag(p) for p in cfg.p_values]
        if len(set(tags)) < len(tags):
            shared = sorted({t for t in tags if tags.count(t) > 1})
            raise ConfigError("p_values", f"entries must differ in their file tag f'{{p:g}}'; shared: {shared}")
    if "n_maps" in data:
        cfg.n_maps = _as_int(data["n_maps"], "n_maps")
        if cfg.n_maps < 1:
            raise ConfigError("n_maps", f"must be >= 1, got {cfg.n_maps}")
    if "master_seed" in data:
        cfg.master_seed = _as_int(data["master_seed"], "master_seed")
        if not 0 <= cfg.master_seed < 2**64:
            raise ConfigError("master_seed", "must fit in unsigned 64 bits")
    if "coin_reflectivity" in data:
        cfg.coin_reflectivity = _as_number(data["coin_reflectivity"], "coin_reflectivity")
        if not 0.0 <= cfg.coin_reflectivity <= 1.0:
            raise ConfigError("coin_reflectivity", "must lie in [0, 1]")
    if "sampling_mode" in data:
        if data["sampling_mode"] not in SAMPLING_MODES:
            raise ConfigError("sampling_mode", f"must be one of {SAMPLING_MODES}")
        cfg.sampling_mode = data["sampling_mode"]
    if "alphabet" in data:
        if not isinstance(data["alphabet"], list):
            raise ConfigError("alphabet", "expected a non-empty list")
        try:
            cfg.alphabet = check_alphabet(_parse_alphabet_value(v) for v in data["alphabet"])
        except DomainError as exc:
            raise ConfigError("alphabet", str(exc)) from None
    if "fit_range" in data and data["fit_range"] is not None:
        fr = data["fit_range"]
        if not isinstance(fr, list) or len(fr) != 2:
            raise ConfigError("fit_range", f"expected [lo, hi], got {fr!r}")
        lo, hi = _as_int(fr[0], "fit_range"), _as_int(fr[1], "fit_range")
        if not (1 <= lo < hi <= cfg.steps):
            raise ConfigError("fit_range", f"need 1 <= lo < hi <= steps ({cfg.steps}), got {fr!r}")
        cfg.fit_range = (lo, hi)
    if "p_grid" in data:
        cfg.p_grid = _parse_p_grid(data["p_grid"])
    if "crossing_steps" in data:
        if not isinstance(data["crossing_steps"], list) or not data["crossing_steps"]:
            raise ConfigError("crossing_steps", "expected a non-empty list")
        cfg.crossing_steps = [_as_int(v, "crossing_steps") for v in data["crossing_steps"]]
        cfg.check_crossing_steps()
    if "two_photon" in data:
        cfg.two_photon = _parse_two_photon(data["two_photon"])
    if "output_dir" in data:
        if not isinstance(data["output_dir"], str) or not data["output_dir"]:
            raise ConfigError("output_dir", "expected a non-empty string")
        cfg.output_dir = data["output_dir"]
    return cfg


# A number with an exponent, which YAML 1.1 reads as a float only with a
# dot and a signed exponent: 1e-05, 2E3 and 1.5e3 are strings to PyYAML.
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$")


@functools.cache
def _with_exponent_floats(base: type) -> type:
    """The YAML loader class `base`, reading every exponent number as a float."""
    loader = type(base.__name__, (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+0123456789."))
    return loader


def load_config(path) -> SimulationConfig:
    # libyaml's safe loader where PyYAML was built with it: the same
    # documents, parsed several times faster than the pure-Python one.
    loader = _with_exponent_floats(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        data = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bytes not UTF-8, an int too long
        raise ConfigError("<file>", f"not valid YAML: {exc}") from None
    if data is None:
        data = {}
    return config_from_dict(data)


def config_echo(cfg: SimulationConfig) -> dict:
    """JSON-ready dump of the effective configuration, for the run manifest."""
    return {
        "steps": cfg.steps,
        "p_values": list(cfg.p_values),
        "n_maps": cfg.n_maps,
        "master_seed": cfg.master_seed,
        "coin_reflectivity": cfg.coin_reflectivity,
        "sampling_mode": cfg.sampling_mode,
        "alphabet_pi_units": [a / math.pi for a in cfg.alphabet],
        "fit_range": list(cfg.effective_fit_range()),
        "p_grid": list(cfg.p_grid),
        "crossing_steps": list(cfg.crossing_steps),
        "two_photon": {
            "eta": cfg.two_photon.eta,
            "visibility": cfg.two_photon.visibility,
            "coherence_time": cfg.two_photon.coherence_time,
            "delays": list(cfg.two_photon.delays),
            "display_normalization": cfg.two_photon.display_normalization,
        },
        "output_dir": cfg.output_dir,
    }

"""The README's examples run as written: the library quick start prints
the exponents its comments give, and the example config is accepted."""

import contextlib
import io
import re
from pathlib import Path

import pytest
import yaml

from pdqw.config import SimulationConfig, config_from_dict

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def block(heading: str, language: str) -> str:
    """The first fenced `language` block after the line `heading`."""
    section = README[README.index(heading + "\n"):]
    match = re.search(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S)
    return match.group(1)


def test_quick_start_prints_the_commented_values():
    code = block("## Library quick start", "python")
    expected = [float(x) for x in re.findall(r"^print\(.*\)\s*# ~([0-9.]+)$", code, flags=re.M)]
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert printed == pytest.approx(expected, abs=0.01)


def test_example_config_is_accepted():
    data = yaml.safe_load(block("## CLI", "yaml"))
    cfg = config_from_dict(data)
    assert set(data) < set(vars(SimulationConfig()))
    assert (cfg.steps, cfg.n_maps, cfg.coin_reflectivity, cfg.output_dir) == (7, 1000, 0.5, "out")
    assert len(cfg.p_grid) == 101

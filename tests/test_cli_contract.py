"""The CLI's contract under generated configs.

Every command runs in process through `main`, with warnings as errors, on
small configs whose values come from edge sets (p at 0, the smallest
subnormal, 1e-300, 1 - 1e-16 and 1; one-letter, repeated and +-1e300
alphabets; reflectivity and eta 0 and 1; extreme delays and coherence
times) mixed with ordinary values, so that `beta` and `crossing` also reach
their success paths. Whatever the config, a command exits 0, 1 or 2. On 0,
every CSV cell is a finite float and the manifest lists exactly the files
written, each with its sha256 and size on disk. Otherwise the command
leaves no manifest of its own and no temporary file.
"""

import csv
import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pdqw.cli import _COMMANDS, main

EDGE_P = [0.0, 5e-324, 1e-300, 1.0 - 1e-16, 1.0]
p_values = st.one_of(st.sampled_from(EDGE_P), st.floats(0.0, 1.0))
unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
delays = st.one_of(st.sampled_from([0.0, 1e308, -1e308, 1e300, -1e300, 5e-324]), st.floats(-10.0, 10.0))
dense_grids = st.sampled_from([{"step": 0.05}, {"start": 0.0, "stop": 1.0, "step": 0.02}])
# Alphabet entries are multiples of pi, as in a config file.
letters = st.sampled_from([0, 1, 0.5, "pi", 0.25, 1e300, -1e300])


@st.composite
def configs(draw) -> dict:
    # An ordinary config (steps >= 3, a crossing step >= 3, a dense grid, a
    # coin away from 0 and 1, two or three letters) lets beta and crossing
    # succeed; the others draw from the edge sets.
    ordinary = draw(st.booleans())
    steps = draw(st.integers(3 if ordinary else 1, 5))
    return {
        "steps": steps,
        "n_maps": draw(st.integers(1, 3)),
        "master_seed": draw(st.sampled_from([0, 1, 2**32, 2**64 - 1])),
        "p_values": draw(st.lists(p_values, min_size=1, max_size=3, unique_by=lambda p: f"{p:g}")),
        "p_grid": draw(dense_grids if ordinary else st.one_of(
            st.lists(p_values, min_size=2, max_size=4, unique=True).map(sorted), dense_grids)),
        "crossing_steps": draw(st.lists(st.integers(3 if ordinary else 1, steps), min_size=1, max_size=3)),
        "coin_reflectivity": draw(st.floats(0.2, 0.8) if ordinary else st.sampled_from(EDGE_P)),
        "sampling_mode": draw(st.sampled_from(["bernoulli", "exact_fraction"])),
        "alphabet": draw(st.sampled_from([[0, "pi"], [0, 0.5, "pi"]]) if ordinary else st.one_of(
            st.sampled_from([[0], ["pi"], [1, 1], ["pi", 0.0, "pi"]]), st.lists(letters, min_size=1, max_size=3))),
        "two_photon": {
            "eta": draw(unit),
            "visibility": draw(unit),
            "coherence_time": draw(st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
                                             st.floats(0.1, 10.0))),
            "delays": draw(st.lists(delays, min_size=1, max_size=4)),
            "display_normalization": draw(st.booleans()),
        },
    }


def check_run(directory: Path, command: str) -> int:
    """Run `command` on directory/config.yaml into a fresh directory and
    check its contract; returns the exit code."""
    out = directory / command
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(directory / "config.yaml"), "--out", str(out)])
    assert code in (0, 1, 2)
    manifest = out / f"manifest_{command.replace('-', '_')}.json"
    written = sorted(f for f in out.rglob("*") if f.is_file() and f != manifest)
    assert not [f for f in written if f.name.endswith(".tmp")]
    if code:
        assert not manifest.exists()
        return code
    outputs = json.loads(manifest.read_text())["outputs"]
    assert sorted(outputs) == sorted(f.relative_to(out).as_posix() for f in written)
    for f in written:
        data = f.read_bytes()
        assert outputs[f.relative_to(out).as_posix()] == {
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        if f.suffix == ".csv":
            with open(f, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
    return code


@settings(max_examples=25, deadline=None)
@given(config=configs())
def test_every_command_keeps_the_exit_and_output_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "config.yaml").write_text(json.dumps(config))
        for command in _COMMANDS:
            check_run(directory, command)

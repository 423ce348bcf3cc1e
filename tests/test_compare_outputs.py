"""tools/compare_outputs.py: the cell comparison of two CSVs, its report,
the check of each manifest against the files written, and the comparison
of the two revisions' manifests."""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

HEADER = "p,step,mean_var2,std_var2"


def write_pair(tmp_path, rows_a, rows_b, header_b=HEADER, suffix=".csv"):
    paths = []
    for side, header, rows in (("a", HEADER, rows_a), ("b", header_b, rows_b)):
        path = tmp_path / side / f"two_photon_var2{suffix}"
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")
        paths.append(path)
    return paths


class TestCellChange:
    def test_sizes_the_largest_change(self, tmp_path):
        a, b = write_pair(tmp_path, ["0.1,1,2.0,0.5", "0.1,2,4.0,0.25"],
                          ["0.1,1,2.5,0.5", "0.1,2,4.0,0.75"])
        assert compare_outputs._cell_change(a, b) == (0.5, pytest.approx(2.0 / 3.0), 0)

    def test_counts_exact_zeros_on_one_side_only(self, tmp_path):
        # Two cells leave 0.0 and one reaches it; a signed zero is still 0.0,
        # and a zero kept on both sides is no change.
        a, b = write_pair(tmp_path, ["0.1,1,0.0,0.0", "0.1,2,-0.0,3e-16", "0.1,3,0.0,1.0"],
                          ["0.1,1,8.5e-16,2e-16", "0.1,2,0.0,0.0", "0.1,3,0.0,1.0"])
        absolute, relative, zeros = compare_outputs._cell_change(a, b)
        assert zeros == 3
        assert absolute == 8.5e-16
        assert relative == 1.0

    def test_equal_values_in_another_spelling_are_no_change(self, tmp_path):
        a, b = write_pair(tmp_path, ["0.1,1,1.0,0.0"], ["0.1,1,1.00,-0.0"])
        assert compare_outputs._cell_change(a, b) == (0.0, 0.0, 0)

    def test_a_nan_against_a_number_is_an_infinite_change(self, tmp_path):
        a, b = write_pair(tmp_path, ["0.1,1,nan,0.0", "0.1,2,1.0,0.0"], ["0.1,1,1.0,0.0", "0.1,2,1.0,1e-17"])
        assert compare_outputs._cell_change(a, b) == (math.inf, math.inf, 1)

    @pytest.mark.parametrize("rows_b, header_b, suffix", [
        (["0.1,1,1.0,0.0"], "p,step,mean_var,std_var", ".csv"),
        (["0.1,1,1.0,0.0", "0.1,2,1.0,0.0"], HEADER, ".csv"),
        (["0.1,1,1.0"], HEADER, ".csv"),
        (["0.1,1,one,0.0"], HEADER, ".csv"),
        (["0.1,1,2.0,0.0"], HEADER, ".txt"),
    ], ids=["header", "rows", "cells", "text", "not-csv"])
    def test_unsized_files(self, tmp_path, rows_b, header_b, suffix):
        a, b = write_pair(tmp_path, ["0.1,1,1.0,0.0"], rows_b, header_b, suffix)
        assert compare_outputs._cell_change(a, b) is None


def test_report_adds_up_one_sided_zeros(tmp_path, capsys):
    outs = [tmp_path / "a", tmp_path / "b"]
    write_pair(tmp_path, ["0.1,1,1.0,0.0", "0.1,2,1.0,0.0"], ["0.1,1,1.0,1e-16", "0.1,2,1.0,2e-16"])
    (outs[0] / "same.csv").write_text("x\n1\n", encoding="ascii")
    (outs[1] / "same.csv").write_text("x\n1\n", encoding="ascii")
    (outs[1] / "new.csv").write_text("x\n1\n", encoding="ascii")
    largest = [0.0, 0.0, 1]
    assert compare_outputs._report("check_1: two-photon", outs, ("A", "B"), largest) == (3, 2)
    assert largest == [2e-16, 1.0, 3]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "check_1: two-photon: new.csv only in B",
        "check_1: two-photon: two_photon_var2.csv differs (largest cell change: 2e-16 absolute, "
        "1 relative; 2 cells exactly 0.0 on one side only)",
    ]


class TestManifestMismatches:
    @staticmethod
    def write_run(out):
        """A command's output directory with a manifest that lists its files."""
        files = {"hom.csv": b"delay,eta\n0.0,0.93\n", "maps/p0.5/map_00000.txt": b"steps=1\n"}
        for name, data in files.items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(data)
        outputs = {name: {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
                   for name, data in files.items()}
        (out / "manifest_hom.json").write_text(json.dumps({"outputs": outputs}), encoding="ascii")
        return outputs

    def tamper(self, out, edit):
        outputs = self.write_run(out)
        edit(outputs)
        (out / "manifest_hom.json").write_text(json.dumps({"outputs": outputs}), encoding="ascii")

    def test_a_true_manifest_has_none(self, tmp_path):
        self.write_run(tmp_path)
        assert compare_outputs._manifest_mismatches(tmp_path) == []

    def test_no_output_directory_has_none(self, tmp_path):
        assert compare_outputs._manifest_mismatches(tmp_path / "missing") == []

    @pytest.mark.parametrize("edit, problem", [
        (lambda o: o["hom.csv"].update(sha256="0" * 64), "hom.csv listed as"),
        (lambda o: o["hom.csv"].update(bytes=1), "hom.csv listed as"),
        (lambda o: o.pop("maps/p0.5/map_00000.txt"), "maps/p0.5/map_00000.txt written but not listed"),
        (lambda o: o.update({"extra.csv": {"sha256": "0" * 64, "bytes": 0}}),
         "extra.csv listed but not written"),
    ], ids=["sha256", "bytes", "unlisted", "unwritten"])
    def test_a_tampered_manifest_is_reported(self, tmp_path, edit, problem):
        self.tamper(tmp_path, edit)
        mismatches = compare_outputs._manifest_mismatches(tmp_path)
        assert len(mismatches) == 1
        assert mismatches[0].startswith(f"manifest_hom.json: {problem}")

    def test_a_changed_file_is_reported(self, tmp_path):
        self.write_run(tmp_path)
        (tmp_path / "hom.csv").write_bytes(b"delay,eta\n0.0,0.94\n")
        (mismatch,) = compare_outputs._manifest_mismatches(tmp_path)
        assert mismatch.startswith("manifest_hom.json: hom.csv listed as")


class TestManifestDifferences:
    MANIFEST = {
        "command": "ensemble",
        "config": {"n_maps": 64, "output_dir": "/tmp/out_a", "two_photon": {"eta": 1.0}},
        "created_utc": "2026-01-01T00:00:00+00:00",
        "outputs": {"ensemble.csv": {"sha256": "0" * 64, "bytes": 10}},
        "overrides": {"out": "/tmp/out_a", "seed": 7},
        "peak_rss_mb": 50.0,
        "timings_seconds": {"total": 1.0, "write": 0.5},
    }

    @staticmethod
    def write(tmp_path, manifests):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out, manifest in zip(outs, manifests):
            out.mkdir()
            if manifest is not None:
                (out / "manifest_ensemble.json").write_text(json.dumps(manifest), encoding="ascii")
        return outs

    def test_a_config_field_that_differs_is_named(self, tmp_path):
        b = json.loads(json.dumps(self.MANIFEST))
        b["config"]["n_maps"] = 65
        b["config"]["two_photon"]["eta"] = 0.5
        outs = self.write(tmp_path, [self.MANIFEST, b])
        assert compare_outputs._manifest_differences(outs, ("A", "B")) == [
            "manifest_ensemble.json: config.n_maps differs",
            "manifest_ensemble.json: config.two_photon.eta differs",
        ]

    def test_a_field_on_one_side_only_is_named(self, tmp_path):
        b = dict(self.MANIFEST, max_norm_drift=1e-15)
        outs = self.write(tmp_path, [self.MANIFEST, b])
        assert compare_outputs._manifest_differences(outs, ("A", "B")) == [
            "manifest_ensemble.json: max_norm_drift differs",
        ]

    def test_the_fields_of_one_run_are_not_compared(self, tmp_path):
        b = json.loads(json.dumps(self.MANIFEST))
        b["config"]["output_dir"] = b["overrides"]["out"] = "/tmp/out_b"
        b["created_utc"] = "2026-01-02T00:00:00+00:00"
        b["outputs"] = {}
        b["peak_rss_mb"] = None
        b["timings_seconds"] = {"total": 2.0}
        outs = self.write(tmp_path, [self.MANIFEST, b])
        assert compare_outputs._manifest_differences(outs, ("A", "B")) == []

    def test_a_manifest_on_one_side_only_is_named(self, tmp_path):
        outs = self.write(tmp_path, [None, self.MANIFEST])
        assert compare_outputs._manifest_differences(outs, ("A", "B")) == ["manifest_ensemble.json only in B"]
        assert compare_outputs._manifest_differences([tmp_path / "x", tmp_path / "y"], ("A", "B")) == []

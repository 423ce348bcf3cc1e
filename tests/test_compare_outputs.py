"""tools/compare_outputs.py: the cell comparison of two CSVs and its report."""

import importlib.util
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

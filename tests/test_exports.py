"""The package's public names: every name in pdqw.__all__ exists, and the
list stays sorted, so an export left behind by a removal fails here."""

import copy

import pytest

import pdqw


def test_every_exported_name_resolves():
    assert [name for name in pdqw.__all__ if not hasattr(pdqw, name)] == []


def test_all_is_sorted_without_repeats():
    assert pdqw.__all__ == sorted(set(pdqw.__all__))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pdqw import *", namespace)
    assert set(pdqw.__all__) <= namespace.keys()


# One instance of each record that holds arrays, built small.
RECORDS = {
    "Distribution": lambda: pdqw.Distribution(0, [1.0]),
    "WalkState": lambda: pdqw.evolve(2, pdqw.hadamard_coin(), None, 2)[-1],
    "EnsembleResult": lambda: pdqw.run_ensemble(pdqw.DisorderSpec(0.5, 2), pdqw.hadamard_coin(), 2),
    "SimilarityScan": lambda: pdqw.similarity_scan([0.0, 1.0], 2, 2, pdqw.hadamard_coin(), master_seed=0),
    "PairEnsemble": lambda: pdqw.run_pair_ensemble(pdqw.DisorderSpec(0.5, 2), pdqw.hadamard_coin(), 2, eta=1.0),
    "HomScan": lambda: pdqw.hom_scan([0.0, 1.0], 1.0, 1.0, pdqw.hadamard_coin()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_holding_arrays_compare_by_identity(name):
    # Field-wise equality would take the truth value of an array and raise.
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert (record == record) is True
    assert (record == copy.copy(record)) is False

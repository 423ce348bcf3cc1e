"""p-diluted phase-disordered discrete-time quantum walk simulator."""

from .analysis import (
    CrossingPoint,
    Distribution,
    PowerLawFit,
    crossing_point,
    crw_reference,
    fit_beta,
    similarity,
    variance,
)
from .disorder import (
    DEFAULT_ALPHABET,
    DisorderSpec,
    PhaseMap,
    generate_phase_map,
    load_map,
    save_map,
)
from .ensemble import EnsembleResult, SimilarityScan, run_ensemble, run_ensembles, similarity_scan
from .errors import (
    AmbiguityError,
    CapacityError,
    ConfigError,
    DomainError,
    MapParseError,
    PdqwError,
)
from .two_photon import (
    HomScan,
    PairEnsemble,
    hom_scan,
    run_pair_ensemble,
    run_pair_ensembles,
)
from .walk_core import (
    WalkState,
    coin_from_reflectivity,
    evolve,
    hadamard_coin,
    position_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "CapacityError",
    "ConfigError",
    "CrossingPoint",
    "DEFAULT_ALPHABET",
    "DisorderSpec",
    "Distribution",
    "DomainError",
    "EnsembleResult",
    "HomScan",
    "MapParseError",
    "PairEnsemble",
    "PdqwError",
    "PhaseMap",
    "PowerLawFit",
    "SimilarityScan",
    "WalkState",
    "coin_from_reflectivity",
    "crossing_point",
    "crw_reference",
    "evolve",
    "fit_beta",
    "generate_phase_map",
    "hadamard_coin",
    "hom_scan",
    "load_map",
    "position_distribution",
    "run_ensemble",
    "run_ensembles",
    "run_pair_ensemble",
    "run_pair_ensembles",
    "save_map",
    "similarity",
    "similarity_scan",
    "variance",
]

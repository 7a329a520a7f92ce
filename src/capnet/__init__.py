"""capnet: solvers, oracles, and generators for capacitated survivable
network design at desk scale, in exact rational arithmetic.

The pieces: a cut LP with knapsack-cover strengthening solved by cutting
planes (`solve_good`), randomized rounding of its fractional solutions
(`round_solution`), a forest algorithm for the buy-copies variant
(`multicopy.run`), exact optimization oracles for small instances
(`exact_optimum`, `exact_optimum_multicopy`), and generators for the
instances that exhibit the integrality gaps and the hardness reduction.
"""

from .errors import (
    CapabilityError,
    DisconnectedError,
    InfeasibleError,
    InstanceFormatError,
    InvariantError,
)
from .graphs import (
    Cut,
    Edge,
    Instance,
    KWay,
    KWayCut,
    Pairs,
    Uniform,
    check_feasible,
    max_flow,
    parse_instance,
    serialize_instance,
)
from .cutenum import CutPool, enumerate_near_min_cuts, enumerate_near_min_kway_cuts
from .kclp import (
    FractionalSolution,
    GoodCertificate,
    VariantRecord,
    solve_good,
    variant_for,
    verify_good,
)
from .rounding import RoundingReport, expected_cost_bound, round_solution
from .multicopy import MultiCopySolution, baseline_independent_pairs
from .multicopy import run as run_multicopy
from .oracle import (
    LabelCoverInstance,
    exact_optimum,
    exact_optimum_multicopy,
    gen_label_cover_reduction,
    gen_random,
    gen_single_pair_gap,
    gen_triangle_gap,
    label_cover_from_dict,
    label_cover_to_dict,
    sample_yes_instances,
    verify_yes_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "Cut",
    "CutPool",
    "DisconnectedError",
    "Edge",
    "FractionalSolution",
    "GoodCertificate",
    "InfeasibleError",
    "Instance",
    "InstanceFormatError",
    "InvariantError",
    "KWay",
    "KWayCut",
    "LabelCoverInstance",
    "MultiCopySolution",
    "Pairs",
    "RoundingReport",
    "Uniform",
    "VariantRecord",
    "baseline_independent_pairs",
    "check_feasible",
    "enumerate_near_min_cuts",
    "enumerate_near_min_kway_cuts",
    "exact_optimum",
    "exact_optimum_multicopy",
    "expected_cost_bound",
    "gen_label_cover_reduction",
    "gen_random",
    "gen_single_pair_gap",
    "gen_triangle_gap",
    "label_cover_from_dict",
    "label_cover_to_dict",
    "max_flow",
    "parse_instance",
    "round_solution",
    "run_multicopy",
    "sample_yes_instances",
    "serialize_instance",
    "solve_good",
    "variant_for",
    "verify_good",
    "verify_yes_certificate",
]

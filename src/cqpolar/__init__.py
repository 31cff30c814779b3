"""cqpolar: polar codes and polarization diagnostics for classical-quantum
channels whose input alphabet carries a finite Abelian group operation.

The package is organized as a small laboratory:

- groups:   product-of-cyclic groups, subgroups, quotients, sections
- linalg:   density-matrix toolkit (fidelity, entropy, PGM, sequential
            measurement)
- channel:  cq channels with hybrid classical registers, quotient channels
- diagonal: likelihood-table engine for diagonal (classical) channels,
            merging output classes up to a group shift and a rounding
            grain; synthetic tables are defined up to per-column shifts,
            so only shift-invariant functionals (I, F_d, F, quotients)
            are the channel's
- polarize: +/- transforms, synthetic channels, polarization scans
- codes:    branch classification, frozen quotient structure, encoder
- decoder:  quantum successive-cancellation Monte Carlo
- mac:      multiple-access channels and rate regions
- checks:   one runnable numerical check per proved inequality
- cli:      batch front end (`cqpolar --help`)
"""

__version__ = "0.1.0"

from .channel import CqChannel, HybridState, load_channel, preset_channel
from .codes import CodeParams, CodePlan, build_plan, encode, rate_gap
from .decoder import SCDecoder, decode, error_experiment, step_povm
from .groups import (
    Coset,
    FiniteAbelianGroup,
    GroupElement,
    SectionMap,
    Subgroup,
    enumerate_subgroups,
    generated_subgroup,
    maximal_subgroups,
    quotient_cosets,
    random_section_map,
    refine,
)
from .linalg import (
    Povm,
    angle,
    fidelity,
    pretty_good_measurement,
    sequential_measure,
    trace_distance,
    von_neumann_entropy,
)
from .mac import MacChannel, RateRegion, polarized_region_estimate, region
from .polarize import (
    branch_order,
    minus_transform,
    plus_transform,
    polarization_scan,
    process_sample,
    synthesize,
)

__all__ = [
    "__version__",
    "CqChannel",
    "HybridState",
    "load_channel",
    "preset_channel",
    "CodeParams",
    "CodePlan",
    "build_plan",
    "encode",
    "rate_gap",
    "SCDecoder",
    "decode",
    "error_experiment",
    "step_povm",
    "Coset",
    "FiniteAbelianGroup",
    "GroupElement",
    "SectionMap",
    "Subgroup",
    "enumerate_subgroups",
    "generated_subgroup",
    "maximal_subgroups",
    "quotient_cosets",
    "random_section_map",
    "refine",
    "Povm",
    "angle",
    "fidelity",
    "pretty_good_measurement",
    "sequential_measure",
    "trace_distance",
    "von_neumann_entropy",
    "MacChannel",
    "RateRegion",
    "polarized_region_estimate",
    "region",
    "branch_order",
    "minus_transform",
    "plus_transform",
    "polarization_scan",
    "process_sample",
    "synthesize",
]

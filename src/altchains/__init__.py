"""Finite-integer-set sum/difference arithmetic and alternating MSTD/MDTS chains."""

from .chains import (
    Chain,
    GrowthRow,
    MethodTag,
    ValidationReport,
    growth_rates,
    growth_table,
    limiting_density,
    validate_chain,
)
from .intset import (
    CONWAY_SET,
    IntSet,
    SetClass,
    SumDiffProfile,
    affine,
    classify,
    diffset,
    format_density,
    format_set_literal,
    interval,
    make_set,
    parse_set_literal,
    profile,
    residue_count,
    sumset,
)
from .method1 import (
    Method1Params,
    analyze_modulus,
    generate_chain_m1,
    search_moduli,
)
from .method2 import (
    generate_chain_m2,
    verify_star_identities,
)
from .method3 import (
    delta_counts,
    generate_chain_m3,
    phase1_set,
    set_m3,
)
from .nathanson import NathansonParams, build_base, check_interval_lemma

__version__ = "0.1.0"

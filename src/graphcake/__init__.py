"""Connected, approximately envy-free division of graph-shaped cakes."""

from .model import (
    Allocation,
    ContractViolation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    PointOnEdge,
    Share,
    StepDensity,
    cut,
    eval_share,
    is_connected,
    validate_allocation,
)
from .divide import decycle, divide
from .iterative import (
    ADAPTIVE_IDENTICAL,
    FIXED_QUARTER,
    identical_four_ef,
    iterative_divide,
    threshold,
)
from .balance import identical_two_eps, min_max_path, balance_path, recursive_balance
from .star_eps import Trading, leaf_first, prepare_layout, star_three_eps
from .star_identical import star_identical_2ef
from .psn import (
    EdgeBijection,
    PsnCertificate,
    lift_segment,
    min_diameter_spanning_tree,
    psn_allocate,
    psn_certificate,
    psn_exact_check,
    tree_dfs_bijection,
)
from .fairness import (
    FairnessReport,
    brute_force_egalitarian,
    fairness_report,
    prop1_check,
)
from .generate import GeneratorSpec, fig1_instance, generate
from .queries import QueryLedger

__all__ = [name for name in dir() if not name.startswith("_")]

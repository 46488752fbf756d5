"""Outer bounds for deterministic interference channels.

Exact rate-region evaluation on finite alphabets, cut-chain bounds on
replicated (extended) networks, and an exact-arithmetic Shannon-inequality
prover for the conditional-entropy steps behind each bound.
"""

from .channels import (
    DeterministicChannel,
    ValidationReport,
    builtin_channel,
    validate_channel,
)
from .entropy import (
    JointTable,
    SourceDistribution,
    VariableId,
    base_terms,
    conditional_entropy,
    entropy,
    induce_joint,
    mutual_information,
)
from .extend import (
    BoundRecipe,
    ReplicationRecipe,
    build_extended,
    builtin_recipe,
    chain_closed_form,
    limit_bound,
    supported_bounds,
    verify_chain_identity,
    verify_replica_rates,
)
from .gcs import (
    ChainValue,
    CutChain,
    enumerate_chains,
    evaluate_chain,
    min_chain_bound,
    validate_chain,
)
from .networks import NetworkGraph, base_network, replicate_distribution
from .prover import (
    ProofResult,
    ProverProblem,
    appendix_targets,
    dic_constraints,
    elemental_inequalities,
    prove,
)
from .regions import (
    BoundTemplate,
    RegionPolytope,
    bound_vector,
    contains,
    load_templates,
    permute_templates,
    region_polytope,
    sample_region,
)

__version__ = "0.1.0"

__all__ = [
    "BoundRecipe",
    "BoundTemplate",
    "ChainValue",
    "CutChain",
    "DeterministicChannel",
    "JointTable",
    "NetworkGraph",
    "ProofResult",
    "ProverProblem",
    "RegionPolytope",
    "ReplicationRecipe",
    "SourceDistribution",
    "ValidationReport",
    "VariableId",
    "appendix_targets",
    "base_network",
    "base_terms",
    "bound_vector",
    "build_extended",
    "builtin_channel",
    "builtin_recipe",
    "chain_closed_form",
    "conditional_entropy",
    "contains",
    "dic_constraints",
    "elemental_inequalities",
    "entropy",
    "enumerate_chains",
    "evaluate_chain",
    "induce_joint",
    "limit_bound",
    "load_templates",
    "min_chain_bound",
    "mutual_information",
    "permute_templates",
    "prove",
    "region_polytope",
    "replicate_distribution",
    "sample_region",
    "supported_bounds",
    "validate_chain",
    "validate_channel",
    "verify_chain_identity",
    "verify_replica_rates",
]

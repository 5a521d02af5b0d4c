"""Quiver mutation, green sequences, chain decompositions, and search oracles."""

from .quiver import (
    Color,
    IceQuiver,
    MutationSequence,
    Policy,
    Quiver,
    QuiverError,
    Trace,
    Verdict,
    apply_sequence,
    coframe,
    color,
    colors,
    final_state,
    frame,
    full_subquiver,
    is_green_sequence,
    is_maximal_green_sequence,
    make_quiver,
    mutate,
    restrict_sequence,
)
from .decomposition import (
    ChainDecomposition,
    ChainVertex,
    associated_sequence,
    build_decomposition,
    check_step_shapes,
    construct_mgs,
    cover_relations,
    decompose_with_chains,
    descending_order,
    expected_mgs_length,
    is_greater,
    random_decomposition,
    two_chain_mgs,
    underlying_quiver,
    validate_chains,
)
from .cartan import CartanData, cartan_data
from .families import auto_decompose, linear_a
from .oracle import count_mgs, enumerate_green_sequences, min_mgs_length

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

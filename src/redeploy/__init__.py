"""Equalizing school teacher deficits through constrained transfers.

Given schools with teacher surpluses and deficits, and teachers willing to
move only to schools they find acceptable, this package computes a transfer
plan whose remaining deficit profile Lorenz-dominates every other feasible
outcome: it is simultaneously best for the total, for the worst-off school,
and for any convex cost of deficits.  The solver runs an exact-rational
egalitarian split of the induced cooperative game and rounds it through a
max-flow with floor/ceiling bounds.  `solve` is polynomial: each block of
the split takes a few Dinkelbach steps of one minimum cut each.  A
brute-force oracle (transfer enumeration and a test-only scan of every
coalition) and a strategy-proofness auditor ship alongside; those
exhaustive checks, and the game's achievability and supermodularity scans,
refuse inputs beyond their caps.
"""

from .egalitarian import Decomposition, argmax_average_marginal, decompose
from .errors import CapExceededError, InfeasibleTransferError, \
    SolverDefectError, UnknownIdError, ValidationError
from .game import FlowGame, blocking_coalition, check_supermodular, \
    is_achievable
from .generate import random_instance, random_instance_doc, random_suite
from .instance import STAY, DeficitSchool, DeficitVector, Instance, \
    SurplusSchool, Teacher, Transfer, instance_to_doc, is_feasible, \
    parse_instance, post_transfer_deficits, serialize_instance, \
    transfer_from_doc, transfer_to_doc, validate
from .maxflow import b_max_flow, max_flow, max_flow_with_lower_bounds
from .mechanism import AuditReport, Violation, audit_strategy_proofness, \
    dominant_transfers, select_transfer, tie_break_key, truthful_profile, \
    unstable_select_transfer
from .network import Edge, Flow, FlowNetwork, Node, SinkSpec, \
    build_base_network, build_extended_network, build_network, \
    build_specialization_network, cancel_circulations, flow_to_transfer, \
    to_dot
from .oracle import brute_force_lorenz_dominant, brute_force_v, \
    descending_prefix_sums, enumerate_transfers, lorenz_dominates
from .rounding import RoundedSolution, SolveResult, \
    build_augmented_network, round_decomposition, solve
from .typed import TypedInstance, TypedSchool, TypedTeacher, \
    is_feasible_typed, parse_typed, position, post_transfer_deficits_typed, \
    serialize_typed, validate_typed

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

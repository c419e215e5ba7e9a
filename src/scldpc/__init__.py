"""Girth-conditioned spatially coupled QC-LDPC construction.

Builds quasi-cyclic spatially coupled LDPC codes whose short cycles are
removed by resampling (a constructive Lovász local lemma argument), with
exact activation probabilities, feasibility thresholds, and an experiment
harness that measures how far the resampler's output distribution drifts
from independent sampling.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .model import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    SparseBinaryMatrix, assemble_qc)
from .alist import export_alist, parse_alist
from .serialize import export_instance_json, import_instance_json
from .walks import (CandidateSet, WalkCandidate, dependency_degree,
                    enumerate_cycles, harmful_weight, is_active_lift,
                    is_active_partition)
from .graphs import girth
from .probability import (joint_prob, lift_prob_bound, lift_prob_exact,
                          probability_report, spreading_prob_c4_uniform,
                          spreading_prob_exact)
from .bounds import (COROLLARY4_CAP, c4_block_dims, corollary1_check,
                     corollary1_min_z, corollary4_bound, formula_delta_c4,
                     shift_bound_symmetric, theorem1_feasibility,
                     theorem1_thresholds, theorem2_resample_bound,
                     threshold_branch_i, threshold_branch_ii)
from .moser_tardos import (AdmissionError, construct_two_stage,
                           derive_child_seeds, run_joint, run_stage_lift,
                           run_stage_partition)
from .experiments import (Z99_ONE_SIDED, ExperimentConfig, StructureSpec,
                          estimate_baseline, estimate_mt_shift, sweep,
                          verify_theorem2, wilson_interval)

# The README "Library" surface; report and result types stay in their
# modules (e.g. ``scldpc.bounds.BoundReport``, ``scldpc.moser_tardos.MTTrace``).
__all__ = [
    "Assignment", "BaseCode", "CodeInstance", "CouplingScheme",
    "SparseBinaryMatrix", "assemble_qc",
    "export_alist", "parse_alist",
    "export_instance_json", "import_instance_json",
    "CandidateSet", "WalkCandidate", "dependency_degree",
    "enumerate_cycles", "harmful_weight",
    "is_active_lift", "is_active_partition",
    "girth",
    "joint_prob", "lift_prob_bound", "lift_prob_exact",
    "probability_report", "spreading_prob_c4_uniform",
    "spreading_prob_exact",
    "COROLLARY4_CAP", "c4_block_dims", "corollary1_check",
    "corollary1_min_z", "corollary4_bound",
    "formula_delta_c4", "shift_bound_symmetric",
    "theorem1_feasibility", "theorem1_thresholds",
    "theorem2_resample_bound", "threshold_branch_i", "threshold_branch_ii",
    "AdmissionError", "construct_two_stage",
    "derive_child_seeds", "run_joint", "run_stage_lift",
    "run_stage_partition",
    "ExperimentConfig", "StructureSpec", "estimate_baseline",
    "estimate_mt_shift", "sweep", "verify_theorem2", "wilson_interval",
    "Z99_ONE_SIDED",
]

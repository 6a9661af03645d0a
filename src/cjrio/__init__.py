"""Simulator and verification harness for controlled-joint remote
implementation of operators (CJRIO) over hyperentangled photons."""

__version__ = "0.1.0"

from .hilbert import (A, BasisKet, HybridState, PhotonId, X, bob,
                      build_initial_state, charlie, enumerate_measurement, registry)
from .kerr import enumerate_homodyne, fresh_probe, kerr
from .optics import (PauliPower, SU2Operator, apply_bbs, apply_hwp,
                     apply_pauli_polar, apply_pauli_spatial, apply_pbs,
                     apply_qwp, apply_su2_spatial)
from .oracle import (CorrectionSearchError, TargetState,
                     brute_force_correction, direct_apply, target_fidelity)
from .protocol import (BLOCKED, BranchResult, CorrectionSpec,
                       FrameInconsistencyError, ProtocolConfig, ProtocolRun,
                       branch_fidelity, build_protocol, iter_branches,
                       run_full)
from .stages import CHECK_IDS, StageMismatch, make_stage_checker

__all__ = [
    "A", "BLOCKED", "BasisKet", "BranchResult", "CHECK_IDS",
    "CorrectionSearchError", "CorrectionSpec", "FrameInconsistencyError",
    "HybridState", "PauliPower", "PhotonId", "ProtocolConfig", "ProtocolRun",
    "SU2Operator", "StageMismatch", "TargetState", "X",
    "apply_bbs", "apply_hwp", "apply_pauli_polar",
    "apply_pauli_spatial", "apply_pbs", "apply_qwp", "apply_su2_spatial",
    "bob", "branch_fidelity", "brute_force_correction",
    "build_initial_state", "build_protocol", "charlie", "direct_apply",
    "enumerate_homodyne", "enumerate_measurement", "fresh_probe",
    "iter_branches", "kerr", "make_stage_checker", "registry", "run_full",
    "target_fidelity",
]

"""Exact q-series arithmetic and finite verification of mock theta function
identities, congruences, and partition interpretations.
"""

from .claims import (
    Claim,
    ClaimKind,
    VerificationReport,
    parse_claim_file,
    registry,
    registry_by_id,
    verify,
)
from .expr import eval_expr, parse_expr, to_text
from .mock import MockThetaId, mock_series, valuation_schedule
from .ntheory import FamilyIndex, family_indices, legendre
from .partitions import (
    PartitionRuleSet,
    ResidueRule,
    RULESETS,
    count_dp,
    count_signed,
    theta_stream,
)
from .products import (
    EtaQuotientSpec,
    PochhammerSpec,
    eta,
    eta_quotient,
    jacobi_cube,
    pochhammer,
    theta_f,
)
from .series import TruncatedSeries, make

__all__ = [
    "Claim",
    "ClaimKind",
    "EtaQuotientSpec",
    "FamilyIndex",
    "MockThetaId",
    "PartitionRuleSet",
    "PochhammerSpec",
    "ResidueRule",
    "RULESETS",
    "TruncatedSeries",
    "VerificationReport",
    "count_dp",
    "count_signed",
    "eta",
    "eta_quotient",
    "eval_expr",
    "family_indices",
    "jacobi_cube",
    "legendre",
    "make",
    "mock_series",
    "parse_claim_file",
    "parse_expr",
    "pochhammer",
    "registry",
    "registry_by_id",
    "theta_f",
    "theta_stream",
    "to_text",
    "valuation_schedule",
    "verify",
]

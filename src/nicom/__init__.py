"""Exact golden-ratio Beatty moment sums and mechanical identity verification."""

from .closed_forms import (
    ClosedEngine,
    lemma2_a,
    lemma2_a_prime,
    lemma3_a3,
    lemma4_a_prime3,
)
from .fib_lucas import fib, lucas
from .moment_sums import BruteEngine, BruteForceGuardError, Moment, MomentTable
from .qratio import q_diff, q_value
from .recurrence_prover import (
    Certificate,
    RootSetSpec,
    certify_identity,
)
from .verify_suite import ClaimReport, prove_claim, verify_claim

__version__ = "0.1.0"

"""Prime gap records, analytic gap bounds, and batch verification runs."""

from .bounds import (
    BOUNDS,
    Bound,
    ChainStage,
    andrica_bound,
    chain_tail_excess,
    corollary1_bound,
    dusart_lower,
    dusart_upper,
    empirical_bound,
    proof_chain_check,
)
from .gaps import GapRecord, GapWitness, gap_stream, gap_witness
from .sieve import is_prime_oracle, next_prime, prime_count, primes_up_to
from .verify import (
    Checkpoint,
    CheckpointError,
    RunConfig,
    VerificationSummary,
    maximal_gaps,
    read_checkpoint,
    reproduce_table1,
    resume,
    run_verification,
    table1_mismatches,
    write_checkpoint,
)

__version__ = "0.1.0"

import os
import threading

import numpy as np
import pytest

from primegaps.sieve import is_prime_oracle, primes_up_to

ORACLE_COVER = 110_600  # covers p + n for every prime p <= 100_000


def assert_no_children() -> None:
    """This process has no child, running or unreaped: waitpid finds none to wait for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def one_thread_no_children():
    """Shard processes are a run's only parallelism, and none outlives its run."""
    yield
    assert threading.active_count() == 1, threading.enumerate()
    assert_no_children()


@pytest.fixture(scope="session")
def primes_1e5() -> np.ndarray:
    return primes_up_to(100_000)


@pytest.fixture(scope="session")
def oracle_flags() -> np.ndarray:
    """Trial-division primality verdict for every integer in [0, ORACLE_COVER).

    Built entirely from the oracle, never from the sieve, so it can serve as
    an independent reference for both primality and window counts.
    """
    flags = np.zeros(ORACLE_COVER, dtype=bool)
    for k in range(2, ORACLE_COVER):
        flags[k] = is_prime_oracle(k)
    return flags

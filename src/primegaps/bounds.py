"""Closed-form bounds on prime counts and prime gaps, each defined once.

``log`` is the natural logarithm throughout.  Every inequality is one `Bound`
in `GAP_BOUNDS` (the gap after the prime x) or `COUNT_BOUNDS` (pi(x)).  Its
expression is written once, as a function of x and a backend: `MATH` for
printed values, `NUMPY` for blocks of primes, `DECIMAL` for re-decisions.
A bound with an `exact` rule is decided in integer arithmetic.  Any other is
compared in floats; when the two sides agree to within 1e-9 (relative) the
comparison is re-decided in 50-digit `decimal` arithmetic and flagged marginal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import cached_property
from typing import Any, Callable, NamedTuple

import numpy as np

from .sieve import prime_pi

CHAIN_MIN_P = 60184  # chain stages valid for p strictly above this
# Every gap bound is nondecreasing in integer x >= this: x / (log x - 1.1) is
# least at 8 (8.168), (x + 1) / log x at 4, the others rise everywhere.  So a
# gap that meets a bound at p >= 8 meets it at every later prime, as does a smaller one.
GAP_BOUNDS_RISE_FROM = 8
MARGINAL_RTOL = 1e-9
_RECHECK_DIGITS = 50  # significant digits of a near-tie re-decision


class Backend(NamedTuple):
    """What a bound expression is evaluated with; `const` parses a decimal literal."""

    log: Callable
    sqrt: Callable
    const: Callable[[str], Any]


MATH = Backend(math.log, math.sqrt, float)
NUMPY = Backend(np.log, np.sqrt, float)
# Constants are exact decimals: Decimal("1.1") is 1.1, not the binary float
# nearest to it.  Evaluate under a context of _RECHECK_DIGITS digits.
DECIMAL = Backend(lambda v: Decimal(v).ln(), lambda v: Decimal(v).sqrt(), Decimal)


def is_marginal(observed, bound):
    """True where the two sides are too close for a float comparison to be trusted:
    |bound - observed| <= MARGINAL_RTOL * max(1, |bound|, |observed|).

    Works on numpy arrays and on scalars; `is_marginal_float` is the same rule
    in plain floats, for one decision.
    """
    scale = np.maximum(np.maximum(1.0, np.abs(bound)), np.abs(observed))
    return np.abs(bound - observed) <= MARGINAL_RTOL * scale


def is_marginal_float(observed: float, bound: float) -> bool:
    """`is_marginal` at one point, without numpy."""
    return abs(bound - observed) <= MARGINAL_RTOL * max(1.0, abs(bound), abs(observed))


@dataclass(frozen=True)
class Bound:
    """The inequality ``observed op value(x)`` at the prime (or point) x.

    `value(x, backend)` is the bound's one expression.  `exact(x, observed)`,
    when given, decides the inequality in integer arithmetic, on ints or on
    int64 arrays.  The bound applies where x >= min_x and the prime index
    n > min_index; `note` (formatted with x) is shown where it applies.
    """

    name: str
    description: str
    value: Callable[[Any, Backend], Any]
    exact: Callable[[Any, Any], Any] | None = None
    op: Callable[[Any, Any], Any] = operator.lt
    min_x: int = 2
    min_index: int = 0
    note: str = ""

    @cached_property
    def first_index(self) -> int:
        """Smallest prime index n the bound applies to."""
        return max(self.min_index + 1, prime_pi(self.min_x - 1) + 1)

    def at(self, x: int) -> float:
        """The bound's value at x, in floats."""
        if x < self.min_x:
            raise ValueError(f"{self.name} bound requires x >= {self.min_x}, got {x}")
        return float(self.value(x, MATH))

    def decide(self, x: int, observed: int) -> tuple[bool, bool]:
        """(holds, marginal) at one point; marginal means re-decided in 50-digit decimals."""
        if self.exact is not None:
            return bool(self.exact(x, observed)), False
        bound = self.at(x)
        if not is_marginal_float(observed, bound):
            return bool(self.op(observed, bound)), False
        with localcontext(Context(prec=_RECHECK_DIGITS)):
            return bool(self.op(observed, self.value(x, DECIMAL))), True

    def holds_many(self, xs: np.ndarray, observed: np.ndarray) -> np.ndarray:
        """Vector decision over int64 arrays; near ties go to the scalar decision."""
        if self.exact is not None:
            return self.exact(xs, observed)
        bound = self.value(xs, NUMPY)
        ok = self.op(observed, bound)
        # Found by name at call time, so a wrapper on bounds.<name>_holds sees each call.
        recheck = globals().get(f"{self.name}_holds", self.decide)
        for i in np.flatnonzero(is_marginal(observed, bound)):
            ok[i] = recheck(int(xs[i]), int(observed[i]))[0]
        return ok


def _x_over_log_minus(c: str) -> Callable[[Any, Backend], Any]:
    """x / (log x - c), the form of corollary1 and of both prime-count bounds."""
    return lambda x, xp: x / (xp.log(x) - xp.const(c))


_X_OVER_LOG_MINUS_1_1 = _x_over_log_minus("1.1")


def _epsilon(den: int, min_index: int) -> Bound:
    return Bound(
        f"epsilon_1_{den}",
        f"gap(p_n) < p_n / {den} for n > {min_index}",
        lambda p, xp: p / den,
        exact=lambda p, gap: gap * den < p,
        min_index=min_index,
        note=f"epsilon=1/{den}, applies for n > {min_index}",
    )


# Bounds on gap(p), the distance from the prime p to the next prime.
GAP_BOUNDS: tuple[Bound, ...] = (
    Bound("bertrand", "gap(p_n) < p_n", lambda p, xp: p, exact=lambda p, gap: gap < p),
    Bound("corollary1", "gap(p) < p / (log p - 1.1) for p >= 5", _X_OVER_LOG_MINUS_1_1, min_x=5),
    Bound("empirical", "gap(p) < (p + 1) / log p", lambda p, xp: (p + 1) / xp.log(p)),
    Bound(
        "andrica",
        "gap(p) < 2*sqrt(p) + 1",
        lambda p, xp: 2 * xp.sqrt(p) + 1,
        exact=lambda p, gap: (gap - 1) ** 2 < 4 * p,  # the same inequality for gap >= 1
    ),
    _epsilon(5, 9),
    _epsilon(13, 118),
    _epsilon(16597, 2010760),
)

# Bounds on pi(x), non-strict, valid from min_x on.
COUNT_BOUNDS: tuple[Bound, ...] = (
    Bound(
        "dusart_lower",
        "pi(x) >= x / (log x - 1) for x >= 5393",
        _x_over_log_minus("1"),
        op=operator.ge,
        min_x=5393,
        note="pi({x}) >= bound",
    ),
    Bound(
        "dusart_upper",
        "pi(x) <= x / (log x - 1.1) for x >= 60184",
        _X_OVER_LOG_MINUS_1_1,
        op=operator.le,
        min_x=60184,
        note="pi({x}) <= bound",
    ),
)

BOUNDS: dict[str, Bound] = {b.name: b for b in GAP_BOUNDS + COUNT_BOUNDS}

dusart_lower = BOUNDS["dusart_lower"].at
dusart_upper = BOUNDS["dusart_upper"].at
corollary1_bound = BOUNDS["corollary1"].at
empirical_bound = BOUNDS["empirical"].at
andrica_bound = BOUNDS["andrica"].at
corollary1_holds = BOUNDS["corollary1"].decide
empirical_holds = BOUNDS["empirical"].decide


def andrica_holds(p: int, gap: int) -> bool:
    """gap < 2*sqrt(p) + 1, decided exactly; requires gap >= 1."""
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    return BOUNDS["andrica"].decide(p, gap)[0]


@dataclass(frozen=True, slots=True)
class ChainStage:
    """One stage of the window lower-bound chain: a label and its value."""

    name: str
    value: float


def proof_chain_check(p: int, pi_p: int, n_p: int) -> list[ChainStage]:
    """Evaluate the lower-bound chain for N_p = count of primes in (p, p + pi(p)].

    Stages, in descending order along the derivation:

    * S0 -- the exact window count `n_p`;
    * S1 -- the two-sided prime-count-bound substitution
      p * ((1 + 1/(L-1)) / (L + log(1 + 1/(L-1)) - 1) - 1/(L - 1.1));
    * S2 -- after log(1+x) < x:  p * (L/((L-1)^2 + 1) - 1/(L - 1.1));
    * S3 -- the single rational form (0.9 L - 2) p / (L^3 - 3.1 L^2 + 4.2 L - 2.2),
      algebraically equal to S2;
    * S4 -- the closed floor 0.9 p / L^2.

    Valid for p > 60184.  `pi_p` is sanity-checked against the prime-count
    bounds; an inconsistent value raises ValueError.
    """
    if p <= CHAIN_MIN_P:
        raise ValueError(f"chain stages require p > {CHAIN_MIN_P}, got {p}")
    if not dusart_lower(p) <= pi_p <= dusart_upper(p):
        raise ValueError(
            f"pi_p={pi_p} is inconsistent with the prime-count bounds at p={p}"
        )
    if n_p < 0:
        raise ValueError(f"n_p must be a count, got {n_p}")
    L = math.log(p)
    inv = 1.0 / (L - 1.0)
    s1 = p * ((1.0 + inv) / (L + math.log1p(inv) - 1.0) - 1.0 / (L - 1.1))
    s2 = p * (L / ((L - 1.0) ** 2 + 1.0) - 1.0 / (L - 1.1))
    s3 = (0.9 * L - 2.0) * p / (L**3 - 3.1 * L**2 + 4.2 * L - 2.2)
    s4 = 0.9 * p / L**2
    return [
        ChainStage("S0", float(n_p)),
        ChainStage("S1", s1),
        ChainStage("S2", s2),
        ChainStage("S3", s3),
        ChainStage("S4", s4),
    ]


def chain_tail_excess(p: int) -> float:
    """(S4 - S3) rearranged to -(79/90) L + 911/405 + (10201/3645)/(L - 20/9).

    Negative exactly when S4 <= S3 (denominators positive for p > 60184),
    which is how the final floor of the chain is justified.
    """
    if p <= CHAIN_MIN_P:
        raise ValueError(f"excess term requires p > {CHAIN_MIN_P}, got {p}")
    L = math.log(p)
    return -(79.0 / 90.0) * L + 911.0 / 405.0 + (10201.0 / 3645.0) / (L - 20.0 / 9.0)

"""Closed-form round lower bounds used to sandwich measured counts.

All bounds derive from one counting fact: a processor with r words of
memory can produce at most r**1.5 product terms per round, because terms
sharing an inner index need both factors resident and distinct terms
need distinct result slots.  Dividing the total term count of a problem
by the fleet's per-round capacity gives the round bound; ceilings keep
everything integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict


def term_capacity(r: int) -> int:
    """Max product terms one processor with r memory words can form per round."""
    if r < 1:
        raise ValueError("memory must be >= 1")
    return math.isqrt(r**3)


def snapped(value: float, rounding=math.ceil) -> int:
    """``rounding(value)`` after snapping float noise onto exact integers."""
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return rounding(value)


def ceil_log(base: int, value: int) -> int:
    """Smallest j with base**j >= value (exact integer arithmetic)."""
    if base < 2:
        raise ValueError("log base must be >= 2")
    if value <= 1:
        return 0
    j, power = 0, 1
    while power < value:
        power *= base
        j += 1
    return j


def lower_bound_terms(terms: int, procs: int, memory: int) -> int:
    """Rounds to form ``terms`` products on ``procs`` processors of ``memory`` words."""
    return -(-terms // (procs * term_capacity(memory)))


def lower_bound_square(n: int, alpha: float) -> int:
    """Rounds needed for an n x n product on n**alpha processors."""
    if not 0 <= alpha <= 2:
        raise ValueError("alpha must lie in [0, 2]")
    procs = snapped(n**alpha, math.floor)
    memory = snapped(n ** (2 - alpha), math.floor)
    return lower_bound_terms(n**3, procs, memory)


def lower_bound_ndn(n: int, d: int) -> int:
    """Rounds for (n x d) * (d x n) on n processors with O(n) memory."""
    if d > n:
        raise ValueError("requires d <= n")
    return lower_bound_terms(n * n * d, n, n)


def ceil_sqrt(v: int) -> int:
    return math.isqrt(v - 1) + 1 if v > 1 else v


def lower_bound_dnd(n: int, d: int, procs: str) -> int:
    """Rounds for (d x n) * (n x d); ``procs`` picks the machine size.

    With n processors the term-capacity part adds to the fan-in part
    (ceil(sqrt(d)) + ceil(log_d n)); with d processors only the capacity
    part binds (ceil(d / sqrt(n))).
    """
    if d > n:
        raise ValueError("requires d <= n")
    if procs == "n":
        return ceil_sqrt(d) + ceil_log(max(d, 2), n)
    if procs == "d":
        return -(-d // math.isqrt(n))
    raise ValueError("procs must be 'n' or 'd'")


def lower_bound_tree_sum(t: int, k: int) -> int:
    """Rounds to fan t distributed addends into one value with k memory."""
    return ceil_log(max(k, 2), t)


@dataclass
class BoundReport:
    case: str
    params: dict
    lower_rounds: int
    measured_rounds: int

    @property
    def ratio(self) -> float:
        return self.measured_rounds / max(self.lower_rounds, 1)

    @property
    def ok(self) -> bool:
        return self.measured_rounds >= self.lower_rounds

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ratio"] = self.ratio
        d["ok"] = self.ok
        return d

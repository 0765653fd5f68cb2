"""Stopping rules and epsilon schedules for the measurement process.

A rule decides, from the outcome history alone (never the future), when the
process halts.  Histories are summarized by the per-sweep bit stream: a 0
extends the current run, a 1 completes it (zero-length runs count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalOrderingError, ParameterError


@dataclass(frozen=True)
class FirstRunOfZeros:
    """Stop the moment the current run of 0s reaches length n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("run length must be >= 1")

    def hard_cap(self):
        return None


@dataclass(frozen=True)
class Secretary:
    """Observe for floor(t/e) steps, then stop at the first record run.

    Ties with the best completed run are broken by a fair coin; the horizon
    t is also a hard cap on the number of steps.
    """

    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ParameterError("horizon must be >= 1")

    @property
    def observation_steps(self) -> int:
        return int(self.horizon / math.e)

    def hard_cap(self):
        return self.horizon


@dataclass(frozen=True)
class ExpectedRank:
    """Minimum-expected-rank threshold policy over at most t runs."""

    max_runs: int

    def __post_init__(self):
        if self.max_runs < 1:
            raise ParameterError("max_runs must be >= 1")

    def hard_cap(self):
        return None


@dataclass(frozen=True)
class TimeCap:
    """Never stops on its own; truncates the process at max_steps."""

    max_steps: int

    def __post_init__(self):
        if self.max_steps < 1:
            raise ParameterError("max_steps must be >= 1")

    def hard_cap(self):
        return self.max_steps


StoppingRule = FirstRunOfZeros | Secretary | ExpectedRank | TimeCap


@dataclass(frozen=True)
class ChowThresholds:
    """Threshold table s_1..s_n and value function c_0..c_{n-1}."""

    n: int
    s: tuple[int, ...]
    c: tuple[float, ...]

    @property
    def expected_rank(self) -> float:
        return self.c[0]


def chow_thresholds(n: int) -> ChowThresholds:
    """Backward recursion for the minimum-expected-rank stopping policy.

    Exact rational arithmetic: s_i = floor((i+1) c_i / (n+1)) is an integer
    comparison that float rounding must not corrupt.  Boundary: the last
    candidate must be taken, so c_{n-1} = (n+1)/2 and s_n = n.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    s = [0] * (n + 1)
    s[n] = n
    c = [Fraction(0)] * n
    c[n - 1] = Fraction(n + 1, 2)
    for i in range(n - 1, 0, -1):
        s[i] = int((i + 1) * c[i] / (n + 1))  # Fraction floor via int()
        c[i - 1] = (
            Fraction(n + 1, i + 1) * Fraction(s[i] * (s[i] + 1), 2) + (i - s[i]) * c[i]
        ) / i
    return ChowThresholds(n=n, s=tuple(s), c=tuple(float(x) for x in c))


@dataclass
class OutcomeHistory:
    """Summary a rule may consult: step count, current run, completed runs."""

    step: int = 0
    current_run: int = 0
    completed_runs: list[int] | None = None

    def __post_init__(self):
        if self.completed_runs is None:
            self.completed_runs = []

    @property
    def best_completed(self) -> int:
        return max(self.completed_runs) if self.completed_runs else -1


def should_stop(rule: StoppingRule, history: OutcomeHistory, rng=None) -> bool:
    """Decide from the history summary; randomized tie-breaks draw from rng.

    Decisions only fire on 0-outcomes (current_run >= 1); a rule never stops
    immediately after a failure.
    """
    if isinstance(rule, TimeCap):
        return False
    if history.current_run < 1:
        return False
    if isinstance(rule, FirstRunOfZeros):
        return history.current_run >= rule.n
    if isinstance(rule, Secretary):
        if history.step <= rule.observation_steps:
            return False
        best = history.best_completed
        if history.current_run > best:
            return True
        if history.current_run == best:
            if rng is None:
                raise ParameterError("secretary tie-break needs an rng")
            return bool(rng.random() < 0.5)
        return False
    if isinstance(rule, ExpectedRank):
        i = len(history.completed_runs) + 1
        if i >= rule.max_runs:
            return True
        table = _chow_cache(rule.max_runs)
        s_i = table.s[i]
        if s_i < 1:
            return False
        cur = history.current_run
        rank = 1
        for run in history.completed_runs:
            if run > cur:
                rank += 1
            elif run == cur:
                if rng is None:
                    raise ParameterError("expected-rank tie-break needs an rng")
                if rng.random() < 0.5:
                    rank += 1
        return rank <= s_i
    raise ParameterError(f"unknown stopping rule {rule!r}")


_CHOW_CACHE: dict[int, ChowThresholds] = {}


def _chow_cache(n: int) -> ChowThresholds:
    if n not in _CHOW_CACHE:
        _CHOW_CACHE[n] = chow_thresholds(n)
    return _CHOW_CACHE[n]


class RuleTracker:
    """Stateful per-trajectory wrapper feeding outcomes to should_stop."""

    def __init__(self, rule: StoppingRule, rng):
        self.rule = rule
        self.rng = rng
        self.history = OutcomeHistory()

    def update(self, bit: int) -> bool:
        """Record one sweep outcome; True means stop now (on this 0)."""
        h = self.history
        h.step += 1
        if bit == 0:
            h.current_run += 1
            return should_stop(self.rule, h, self.rng)
        h.completed_runs.append(h.current_run)
        h.current_run = 0
        return False


# ---------------------------------------------------------------------------
# Epsilon schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonSchedule:
    """Constant eps, or eps/(t - t1) decaying since the last 1-outcome."""

    kind: str  # "constant" | "decaying"
    base: float

    def __post_init__(self):
        if self.kind not in ("constant", "decaying"):
            raise ParameterError(f"unknown schedule kind {self.kind!r}")
        # eps = 1 is the projective / bare-AGSP limit, legal for constant
        # schedules; the weak-measurement regime proper is 0 < eps < 1.
        top = 1.0 if self.kind == "constant" else 1.0 - 1e-15
        if not 0.0 < self.base <= top:
            raise ParameterError(f"schedule base must be in (0, 1], got {self.base}")

    @staticmethod
    def constant(eps: float) -> "EpsilonSchedule":
        return EpsilonSchedule("constant", eps)

    @staticmethod
    def decaying(eps: float) -> "EpsilonSchedule":
        return EpsilonSchedule("decaying", eps)


def epsilon_at(schedule: EpsilonSchedule, t: int, t1: int) -> float:
    """Schedule value at step t given the last 1-outcome happened at t1."""
    if t <= t1:
        raise InternalOrderingError(f"step t={t} must exceed last-failure step t1={t1}")
    if schedule.kind == "constant":
        return schedule.base
    return schedule.base / (t - t1)


def suggest_epsilon(ham) -> float:
    """Conservative eps = 1/(4m + 4), below the decaying-schedule threshold
    for any spectrum (uses lambda1/kappa <= 1, so no spectral knowledge)."""
    m = ham.num_terms
    if m < 1:
        raise ParameterError("Hamiltonian has no terms")
    return 1.0 / (4 * m + 4)

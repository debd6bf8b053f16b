"""Energy integration and accounting.

The prototype could not measure energy directly; Section 6 notes "the data
collected is sufficient for post-processing to determine the amount of power
that would have been saved".  We do that post-processing online: an
:class:`EnergyAccumulator` integrates piecewise-constant power over
simulation time, and an :class:`EnergyLedger` keeps one accumulator per
component (core, non-CPU, ...) to report the Table 3 energy rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..units import check_non_negative

__all__ = ["EnergyAccumulator", "EnergyLedger"]


@dataclass
class EnergyAccumulator:
    """Integrates piecewise-constant power into joules.

    Usage: call :meth:`advance_to` with the current time and the power level
    that held *since the previous call*.
    """

    start_time_s: float = 0.0
    energy_j: float = field(default=0.0, init=False)
    last_time_s: float = field(init=False)

    def __post_init__(self) -> None:
        check_non_negative(self.start_time_s, "start_time_s")
        self.last_time_s = self.start_time_s

    def advance_to(self, now_s: float, power_w: float) -> None:
        """Accumulate ``power_w`` held over ``[last_time, now]``."""
        check_non_negative(power_w, "power_w")
        if now_s < self.last_time_s:
            raise SimulationError(
                f"time went backwards: {now_s} < {self.last_time_s}"
            )
        self.energy_j += power_w * (now_s - self.last_time_s)
        self.last_time_s = now_s

    @property
    def elapsed_s(self) -> float:
        """Total integrated duration."""
        return self.last_time_s - self.start_time_s

    @property
    def average_power_w(self) -> float:
        """Mean power over the integrated span (0 before any time passes)."""
        if self.elapsed_s == 0.0:
            return 0.0
        return self.energy_j / self.elapsed_s


@dataclass
class EnergyLedger:
    """Named energy accumulators sharing a timeline."""

    start_time_s: float = 0.0
    accounts: dict[str, EnergyAccumulator] = field(default_factory=dict)

    def account(self, name: str) -> EnergyAccumulator:
        """Get (or lazily create) the named accumulator."""
        if name not in self.accounts:
            self.accounts[name] = EnergyAccumulator(start_time_s=self.start_time_s)
        return self.accounts[name]

    def advance_to(self, now_s: float, powers_w: dict[str, float]) -> None:
        """Advance every named account with its held power level.

        Accounts not mentioned are advanced at zero power so all accounts
        share a common ``last_time_s``.
        """
        for name in powers_w:
            self.account(name)  # materialise before the loop below
        for name, acc in self.accounts.items():
            acc.advance_to(now_s, powers_w.get(name, 0.0))

    @property
    def total_energy_j(self) -> float:
        """Sum of all accounts."""
        return sum(a.energy_j for a in self.accounts.values())

    def energy_of(self, name: str) -> float:
        """Energy of one account (0.0 if it never existed)."""
        acc = self.accounts.get(name)
        return acc.energy_j if acc is not None else 0.0

    def normalized_against(self, baseline: "EnergyLedger") -> dict[str, float]:
        """Per-account energy ratio vs a baseline ledger — the Table 3
        "Energy @ cap" rows are this, with the non-fvsst run as baseline."""
        out: dict[str, float] = {}
        for name, acc in self.accounts.items():
            base = baseline.energy_of(name)
            if base <= 0.0:
                raise SimulationError(
                    f"baseline account {name!r} has no energy to normalise by"
                )
            out[name] = acc.energy_j / base
        return out

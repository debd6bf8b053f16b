"""Power supplies and the cascading-failure scenario of Section 2.

A :class:`SupplyBank` holds redundant :class:`PowerSupply` units sharing the
system load.  When one fails, the survivors must carry the whole draw; if the
draw exceeds remaining capacity for longer than the cascade deadline
``DeltaT``, the next supply fails too (and so on until blackout).  The bank
is advanced in simulation time by the machine model, which reports the
instantaneous system draw.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .. import constants
from ..errors import CascadeFailureError, SimulationError
from ..telemetry import EVENT_PSU_FAILURE, EVENT_PSU_RESTORED, get_telemetry
from ..units import check_non_negative, check_positive

__all__ = ["PowerSupply", "SupplyBank"]


@dataclass
class PowerSupply:
    """One supply: a capacity and a health flag."""

    capacity_w: float
    name: str = "psu"
    failed: bool = False

    def __post_init__(self) -> None:
        check_positive(self.capacity_w, "capacity_w")

    def fail(self) -> None:
        """Mark the supply failed (no-op if already failed)."""
        self.failed = True

    def restore(self) -> None:
        """Bring the supply back online."""
        self.failed = False


@dataclass
class SupplyBank:
    """A set of supplies plus cascade-overload bookkeeping.

    Parameters
    ----------
    supplies:
        The member units.
    cascade_deadline_s:
        ``DeltaT``: how long the bank tolerates demand above capacity before
        the most-loaded surviving supply fails.
    raise_on_cascade:
        When True (default), a cascade raises
        :class:`~repro.errors.CascadeFailureError`; benches that *measure*
        cascades set it False and inspect :attr:`cascade_count`.
    """

    supplies: list[PowerSupply]
    cascade_deadline_s: float = constants.PSU_CASCADE_DEADLINE_S
    raise_on_cascade: bool = True
    #: Simulation time at which the current overload episode began, if any.
    overload_since_s: float | None = field(default=None, init=False)
    #: Number of cascade failures that have occurred.
    cascade_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.supplies:
            raise SimulationError("a supply bank needs at least one supply")
        check_positive(self.cascade_deadline_s, "cascade_deadline_s")

    @classmethod
    def example_p630(cls, **kwargs) -> "SupplyBank":
        """The Section 2 configuration: two 480 W supplies."""
        return cls(
            supplies=[
                PowerSupply(constants.PSU_CAPACITY_W, name=f"psu{i}")
                for i in range(constants.PSU_COUNT)
            ],
            **kwargs,
        )

    # -- capacity ------------------------------------------------------------

    @property
    def online(self) -> list[PowerSupply]:
        """Supplies currently healthy."""
        return [s for s in self.supplies if not s.failed]

    @property
    def capacity_w(self) -> float:
        """Aggregate capacity of the healthy supplies."""
        return sum(s.capacity_w for s in self.online)

    @property
    def all_failed(self) -> bool:
        """True when no supply remains — the system is dark."""
        return not self.online

    # -- events --------------------------------------------------------------

    def fail_supply(self, index: int = 0, *,
                    now_s: float | None = None,
                    cascade: bool = False) -> float:
        """Fail the ``index``-th *online* supply; returns remaining capacity.

        This is the ``T0`` event of the motivating example.  ``now_s``
        (optional) timestamps the telemetry event; ``cascade`` marks
        overload-induced failures as such.
        """
        online = self.online
        if not online:
            raise SimulationError("no online supply left to fail")
        supply = online[index]
        supply.fail()
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(EVENT_PSU_FAILURE, sim_time_s=now_s,
                     supply=supply.name, cascade=cascade,
                     remaining_capacity_w=self.capacity_w)
        return self.capacity_w

    def restore_supply(self, index: int = 0, *,
                       now_s: float | None = None) -> float:
        """Restore the ``index``-th *failed* supply; returns new capacity."""
        failed = [s for s in self.supplies if s.failed]
        if not failed:
            raise SimulationError("no failed supply to restore")
        supply = failed[index]
        supply.restore()
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(EVENT_PSU_RESTORED, sim_time_s=now_s,
                     supply=supply.name, capacity_w=self.capacity_w)
        return self.capacity_w

    # -- overload tracking -----------------------------------------------------

    def observe(self, now_s: float, demand_w: float) -> bool:
        """Record the instantaneous demand at simulation time ``now_s``.

        Returns True if a cascade failure occurred at this observation.
        Overload episodes are tracked between calls: demand above capacity
        starts (or continues) an episode; once an episode's duration exceeds
        the cascade deadline, the first online supply fails, the episode
        restarts against the reduced capacity, and — depending on
        ``raise_on_cascade`` — an exception is raised.
        """
        check_non_negative(now_s, "now_s")
        check_non_negative(demand_w, "demand_w")
        if self.all_failed:
            # Fully cascaded: the system is dark; nothing more can fail.
            return True
        if demand_w <= self.capacity_w:
            self.overload_since_s = None
            return False
        if self.overload_since_s is None:
            self.overload_since_s = now_s
            return False
        if now_s - self.overload_since_s < self.cascade_deadline_s:
            return False
        # Deadline exceeded: cascade.
        self.cascade_count += 1
        self.fail_supply(0, now_s=now_s, cascade=True)
        self.overload_since_s = now_s if not self.all_failed else None
        if self.raise_on_cascade:
            raise CascadeFailureError(
                f"demand {demand_w:.1f} W exceeded capacity for more than "
                f"{self.cascade_deadline_s} s at t={now_s:.3f} s; supply cascade",
                time_s=now_s,
            )
        return True

    def headroom_w(self, demand_w: float) -> float:
        """Capacity minus demand — negative while overloaded."""
        return self.capacity_w - float(demand_w)

    def plan_constant_span(self, times_s: list[float],
                           demand_w: float) -> tuple[int, list[int], bool]:
        """Preview :meth:`observe` at every boundary of a constant-demand span.

        ``times_s`` are ascending observation times.  Returns ``(n_exec,
        actions, raises)``: the caller should integrate the first ``n_exec``
        chunks and then invoke :meth:`observe` at exactly the ``actions``
        indices — the boundaries where the per-boundary sequence changes
        state (episode start/end, each cascade).  Repeating an unchanged
        observation is a no-op, so this reproduces the full sequence
        bit-for-bit while touching O(cascades) boundaries.  ``raises`` is
        True when the last action is a cascade that ``raise_on_cascade``
        turns into :class:`~repro.errors.CascadeFailureError`; the span is
        cut there, so ``n_exec`` is that boundary's index plus one (all of
        ``times_s`` when the cascade lands on the last boundary).

        Pure: nothing is mutated here; the replayed ``observe`` calls do the
        mutating (and the raising).
        """
        n = len(times_s)
        online = [s for s in self.supplies if not s.failed]
        if not online:
            return n, [], False     # dark: every observation is a no-op
        capacity = sum(s.capacity_w for s in online)
        if demand_w <= capacity:
            # Each boundary just clears any episode; one call reproduces it.
            return n, [0], False
        actions: list[int] = []
        since = self.overload_since_s
        deadline = self.cascade_deadline_s
        i = 0
        while True:
            if since is None:
                since = times_s[i]
                actions.append(i)
                i += 1
                if i >= n:
                    return n, actions, False
            # First boundary with times[j] - since >= deadline.  bisect gets
            # close; the float-exact predicate decides (a - b >= c is not
            # the same rounding as a >= b + c, but it is monotone in a).
            j = bisect_left(times_s, since + deadline, i)
            while j > i and times_s[j - 1] - since >= deadline:
                j -= 1
            while j < n and times_s[j] - since < deadline:
                j += 1
            if j >= n:
                return n, actions, False
            actions.append(j)        # cascade fires here
            online.pop(0)            # observe() fails the first online supply
            if self.raise_on_cascade:
                # observe() raises on every cascade — including the one
                # that darkens the bank — so the span always cuts here.
                return j + 1, actions, True
            if not online:
                return n, actions, False    # dark from here on
            capacity = sum(s.capacity_w for s in online)
            since = times_s[j]
            i = j + 1
            if i >= n:
                return n, actions, False
            if demand_w <= capacity:
                actions.append(i)    # the next boundary ends the episode
                return n, actions, False

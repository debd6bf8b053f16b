"""The continuous-frequency scheduler variant (Section 5's extension).

"Rather than calculating the performance loss at each available frequency,
the scheduler could instead calculate ``f_ideal`` ... treats frequencies
continuously rather than discretely and scales to the frequency determined
by epsilon."

The variant replaces step 1 of Figure 3 with the closed-form
:func:`~repro.model.ideal.ideal_frequency`, then (for hardware with a fixed
ladder) quantises to the nearest operating point not below the ideal, and
reuses the same step-2 power pass.  On ladders with many points this costs
one formula evaluation per processor instead of one loss evaluation per
(processor, frequency) pair — the computational concern the paper raises
for "systems with many frequencies or ... continuous frequency scaling".
"""

from __future__ import annotations

from typing import Literal, Sequence

from .. import constants
from ..model.ideal import ideal_frequency
from ..power.table import FrequencyPowerTable
from .scheduler import FrequencyVoltageScheduler, ProcessorView
from .voltage import VoltageSelector

__all__ = ["ContinuousFrequencyScheduler"]


class ContinuousFrequencyScheduler(FrequencyVoltageScheduler):
    """Figure 3 with step 1 replaced by the ``f_ideal`` closed form.

    ``quantize`` selects how the continuous ideal maps onto the table:
    ``"up"`` (default) takes the lowest operating point at or above
    ``f_ideal`` — conservative, since running slightly faster than ideal
    can only reduce the loss; ``"nearest"`` takes the closest point.
    """

    def __init__(self, table: FrequencyPowerTable, *,
                 epsilon: float = constants.DEFAULT_EPSILON,
                 voltage_selector: VoltageSelector | None = None,
                 quantize: Literal["up", "nearest"] = "up") -> None:
        super().__init__(table, epsilon=epsilon,
                         voltage_selector=voltage_selector)
        if quantize not in ("up", "nearest"):
            raise ValueError(f"unknown quantize mode {quantize!r}")
        self.quantize = quantize

    def epsilon_constrained(self, signature) -> tuple[float, float]:
        """Closed-form ideal frequency, quantised to the ladder."""
        if signature is None:
            return self.table.f_max_hz, 0.0
        f_ideal = ideal_frequency(
            signature,
            self.table.f_max_hz,
            epsilon=self.epsilon,
            f_min_hz=self.table.f_min_hz,
        )
        if self.quantize == "up":
            f = self.table.quantize_up(f_ideal)
        else:
            f = self.table.nearest(f_ideal)
        return f, self.predicted_loss(signature, f)

    def ideal_frequency_vector(self, views: Sequence[ProcessorView]
                               ) -> list[float]:
        """The raw (unquantised) ideal frequencies — for continuous-scaling
        hardware and for the ablation benches."""
        out = []
        for view in views:
            if view.idle_signaled or view.signature is None:
                out.append(self.table.f_min_hz if view.idle_signaled
                           else self.table.f_max_hz)
            else:
                out.append(ideal_frequency(
                    view.signature, self.table.f_max_hz,
                    epsilon=self.epsilon, f_min_hz=self.table.f_min_hz,
                ))
        return out

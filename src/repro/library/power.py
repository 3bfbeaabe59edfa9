"""Power models for buffer insertion (switching + short-circuit).

The paper optimizes (delay, noise); this module supplies the third
axis.  Following the RIP hybrid repeater-insertion scheme and the
low-power CMOS optimization protocol (PAPERS.md), the power of a
buffered net is modeled as the sum of

* **switching power** — ``alpha * C * Vdd^2 * f`` for every switched
  capacitance ``C`` (wire segments and buffer input gates), where
  ``alpha`` is the switching-activity factor and ``f`` the clock
  frequency; and
* **short-circuit power** — the brief crowbar current while a buffer's
  input transits, modeled as a fixed fraction of the buffer's own
  switching term (the standard first-order approximation; wires have
  no crowbar path, so the fraction applies to buffers only).

The model is deliberately *monotone and separable*: every inserted
buffer adds ``buffer_power(b) >= 0`` and every traversed wire adds
``wire_power(C) >= 0``, independent of where in the tree they sit.
That is exactly what lets the DP carry a single accumulated power
scalar per candidate and prune on (load, slack, power) dominance
soundly — see ``docs/algorithms.md`` section 10.

The driver cell and the sink input pins switch whether or not any
buffer is inserted, so their (assignment-independent) power is excluded
from the accumulator; reported powers compare solutions, not absolute
chip power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import TechnologyError
from .buffers import BufferType
from .technology import Technology, default_technology


@dataclass(frozen=True)
class PowerModel:
    """Switching + short-circuit power, parametrized on a technology.

    ``activity`` is the signal's switching-activity factor (transitions
    per cycle, typically 0.1-0.3 for global signal nets), ``frequency``
    the clock in Hz, and ``short_circuit_fraction`` the crowbar
    surcharge applied to buffer switching power.  Powers are in watts.
    """

    technology: Technology
    activity: float = 0.15
    frequency: float = 1.0e9
    short_circuit_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.activity <= 1.0:
            raise TechnologyError(
                f"activity must lie in (0, 1], got {self.activity}"
            )
        if not math.isfinite(self.frequency) or self.frequency <= 0.0:
            raise TechnologyError(
                f"frequency must be positive and finite, got {self.frequency}"
            )
        if (
            not math.isfinite(self.short_circuit_fraction)
            or self.short_circuit_fraction < 0.0
        ):
            raise TechnologyError(
                "short_circuit_fraction must be >= 0, got "
                f"{self.short_circuit_fraction}"
            )

    @property
    def _switch_scale(self) -> float:
        """``alpha * Vdd^2 * f`` — the per-farad switching power."""
        return self.activity * self.technology.vdd**2 * self.frequency

    def wire_power(self, capacitance: float) -> float:
        """Switching power of one wire segment of ``capacitance`` farads."""
        return self._switch_scale * capacitance

    def buffer_power(self, buffer: BufferType) -> float:
        """Switching + short-circuit power of one inserted buffer.

        The buffer's switched capacitance is its input gate; the
        short-circuit term rides on top as a fixed fraction.
        """
        return (
            self._switch_scale
            * buffer.input_capacitance
            * (1.0 + self.short_circuit_fraction)
        )

    def to_json(self) -> dict:
        """Parameter block (the technology rides along by name)."""
        return {
            "technology": self.technology.name,
            "activity": self.activity,
            "frequency": self.frequency,
            "short_circuit_fraction": self.short_circuit_fraction,
        }


def default_power_model(
    technology: Optional[Technology] = None,
) -> PowerModel:
    """The standard power model over the default technology."""
    return PowerModel(technology=technology or default_technology())

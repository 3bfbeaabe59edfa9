"""Structured optimization objective: mode + selection rule + constraints.

Selection is a *value*: an :class:`Objective` names the DP mode (which
recurrence runs), the selection rule (which outcome wins), and the
constraints the rule applies (slack floor, power cap, noise
requirement).  One objective travels unchanged through the Python API,
batch configs, the service protocol, and the CLI ``--objective``
grammar.  The paper's Problem 2 (max slack subject to noise) is
``Objective(mode="buffopt", selection="max-slack")``; Problem 3 (fewest
buffers meeting noise and timing) is the default ``Objective()``.

:meth:`Objective.legacy` maps the two mode strings of protocol-v1
requests and pre-objective checkpoints: ``"buffopt"`` to
``Objective(mode="buffopt", selection="fewest-buffers")`` and
``"delay"`` to ``Objective(mode="delay", selection="max-slack",
require_noise=False)``.  Legacy-shaped objectives keep the old
fingerprint schemas, so stored state still matches.

This module lives in ``repro.core`` (not ``repro.api``) because
``DPResult.select`` consumes objectives; ``repro.api`` re-exports
:class:`Objective` as its public home.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "Objective",
    "OBJECTIVE_MODES",
    "SELECTION_RULES",
]

#: DP recurrences an objective can request (``noise`` is not a DP mode;
#: the noise-only heuristic keeps its dedicated CLI surface).
OBJECTIVE_MODES = ("buffopt", "delay")

#: outcome-selection rules over a DP result's outcome frontier.
SELECTION_RULES = (
    "fewest-buffers",
    "max-slack",
    "min-power",
    "power-capped",
    "pareto",
)

#: selection rules that require the DP to run with a power model.
POWER_SELECTIONS = frozenset({"min-power", "power-capped", "pareto"})


def _want_float(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"objective {key} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Objective:
    """What to optimize and how to pick the winning outcome.

    ``mode`` selects the DP recurrence (``buffopt`` = noise-aware
    Algorithm 3, ``delay`` = plain van Ginneken).  ``selection`` picks
    from the resulting outcome frontier:

    * ``fewest-buffers`` — fewest buffers meeting ``min_slack``
      (max-slack fallback when nothing meets it), the classic
      post-timing objective;
    * ``max-slack`` — the best achievable slack, ties to fewer buffers;
    * ``min-power`` — least power among outcomes meeting ``min_slack``
      (max-slack fallback when nothing meets it);
    * ``power-capped`` — best slack among outcomes within
      ``power_cap`` watts (infeasible when none fit the cap);
    * ``pareto`` — the full nondominated (slack, power, count)
      frontier; ``DPResult.select`` returns a tuple of outcomes for
      this rule, so single-outcome consumers (``Session``, batch, the
      service) reject it.

    ``require_noise`` overrides the default noise filter (which is
    "noise-aware iff mode is buffopt"); the legacy delay objective pins
    ``require_noise=False``.  Tie-breaks are fixed per rule and
    documented on the ``DPResult`` methods.
    """

    mode: str = "buffopt"
    selection: str = "fewest-buffers"
    min_slack: float = 0.0
    power_cap: Optional[float] = None
    require_noise: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.mode not in OBJECTIVE_MODES:
            raise ValueError(
                f"objective mode must be one of {OBJECTIVE_MODES}, "
                f"got {self.mode!r}"
            )
        if self.selection not in SELECTION_RULES:
            raise ValueError(
                f"objective selection must be one of {SELECTION_RULES}, "
                f"got {self.selection!r}"
            )
        if isinstance(self.min_slack, bool) or not isinstance(
            self.min_slack, (int, float)
        ):
            raise ValueError(
                f"objective min_slack must be a number, got {self.min_slack!r}"
            )
        if self.power_cap is not None:
            if isinstance(self.power_cap, bool) or not isinstance(
                self.power_cap, (int, float)
            ):
                raise ValueError(
                    "objective power_cap must be a number, got "
                    f"{self.power_cap!r}"
                )
            if self.power_cap < 0.0:
                raise ValueError(
                    f"objective power_cap must be >= 0, got {self.power_cap}"
                )
            if self.selection != "power-capped":
                raise ValueError(
                    "power_cap only applies to the power-capped selection, "
                    f"not {self.selection!r}"
                )
        elif self.selection == "power-capped":
            raise ValueError("power-capped selection requires a power_cap")
        if self.require_noise is not None and not isinstance(
            self.require_noise, bool
        ):
            raise ValueError(
                "objective require_noise must be a bool or None, got "
                f"{self.require_noise!r}"
            )

    # -- derived properties -------------------------------------------------

    @property
    def noise_aware(self) -> bool:
        """Whether the DP recurrence tracks noise (Algorithm 3)."""
        return self.mode == "buffopt"

    @property
    def power_aware(self) -> bool:
        """Whether the DP must carry the power accumulator."""
        return self.selection in POWER_SELECTIONS

    def is_legacy(self) -> bool:
        """True when this objective is exactly a legacy mode string's.

        Legacy-shaped objectives serialize to the *old* request/config
        fingerprint schema so caches and checkpoints written before the
        objective block existed still hit — see
        ``BatchConfig`` and ``repro.service.protocol``.
        """
        return self == Objective.legacy(self.mode, min_slack=self.min_slack)

    # -- legacy mapping -----------------------------------------------------

    @classmethod
    def legacy(cls, mode: str, min_slack: float = 0.0) -> "Objective":
        """The objective a legacy mode string (``"buffopt"`` /
        ``"delay"``) stands for."""
        if mode == "buffopt":
            return cls(
                mode="buffopt",
                selection="fewest-buffers",
                min_slack=min_slack,
            )
        if mode == "delay":
            return cls(
                mode="delay",
                selection="max-slack",
                min_slack=min_slack,
                require_noise=False,
            )
        raise ValueError(
            f"legacy mode must be one of {OBJECTIVE_MODES}, got {mode!r}"
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Canonical JSON block (omits defaulted optional fields)."""
        block: Dict[str, Any] = {
            "mode": self.mode,
            "selection": self.selection,
        }
        if self.min_slack != 0.0:
            block["min_slack"] = self.min_slack
        if self.power_cap is not None:
            block["power_cap"] = self.power_cap
        if self.require_noise is not None:
            block["require_noise"] = self.require_noise
        return block

    @classmethod
    def from_json(cls, block: Mapping[str, Any]) -> "Objective":
        """Parse a JSON block, rejecting unknown keys."""
        if not isinstance(block, Mapping):
            raise ValueError(
                f"objective block must be an object, got {type(block).__name__}"
            )
        known = {"mode", "selection", "min_slack", "power_cap", "require_noise"}
        unknown = sorted(set(block) - known)
        if unknown:
            raise ValueError(
                f"unknown objective key(s): {', '.join(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        if "mode" in block:
            kwargs["mode"] = block["mode"]
        if "selection" in block:
            kwargs["selection"] = block["selection"]
        if "min_slack" in block:
            kwargs["min_slack"] = _want_float(block["min_slack"], "min_slack")
        if "power_cap" in block and block["power_cap"] is not None:
            kwargs["power_cap"] = _want_float(block["power_cap"], "power_cap")
        if "require_noise" in block and block["require_noise"] is not None:
            value = block["require_noise"]
            if not isinstance(value, bool):
                raise ValueError(
                    f"objective require_noise must be a bool, got {value!r}"
                )
            kwargs["require_noise"] = value
        return cls(**kwargs)

    # -- CLI grammar --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "Objective":
        """Parse the CLI grammar ``mode[/selection][/key=value...]``.

        Examples::

            buffopt
            delay
            buffopt/min-power
            buffopt/power-capped/power_cap=2e-4
            delay/max-slack/min_slack=0.1/require_noise=false

        A bare mode maps to :meth:`legacy`, so ``--objective delay``
        is the DelayOpt baseline and ``--objective buffopt`` the
        BuffOpt tool configuration.
        """
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError("objective spec must be a non-empty string")
        parts = [p.strip() for p in spec.strip().split("/")]
        mode = parts[0]
        if mode not in OBJECTIVE_MODES:
            raise ValueError(
                f"objective mode must be one of {OBJECTIVE_MODES}, "
                f"got {mode!r}"
            )
        rest = parts[1:]
        if not rest:
            return cls.legacy(mode)
        selection: Optional[str] = None
        kwargs: Dict[str, Any] = {}
        for part in rest:
            if "=" not in part:
                if selection is not None:
                    raise ValueError(
                        f"objective spec has two selections: "
                        f"{selection!r} and {part!r}"
                    )
                selection = part
                continue
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in ("min_slack", "power_cap"):
                try:
                    kwargs[key] = float(raw)
                except ValueError:
                    raise ValueError(
                        f"objective {key} must be a number, got {raw!r}"
                    ) from None
            elif key == "require_noise":
                lowered = raw.lower()
                if lowered in ("true", "1", "yes"):
                    kwargs[key] = True
                elif lowered in ("false", "0", "no"):
                    kwargs[key] = False
                else:
                    raise ValueError(
                        f"objective require_noise must be true/false, "
                        f"got {raw!r}"
                    )
            else:
                raise ValueError(f"unknown objective key {key!r}")
        if selection is None:
            base = cls.legacy(mode)
            return replace(base, **kwargs)
        return cls(mode=mode, selection=selection, **kwargs)

    def describe(self) -> str:
        """The spec string :meth:`parse` would accept back."""
        parts = [self.mode, self.selection]
        if self.min_slack != 0.0:
            parts.append(f"min_slack={self.min_slack!r}")
        if self.power_cap is not None:
            parts.append(f"power_cap={self.power_cap!r}")
        if self.require_noise is not None:
            parts.append(
                f"require_noise={'true' if self.require_noise else 'false'}"
            )
        return "/".join(parts)

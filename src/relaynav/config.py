"""Configuration dataclasses for a rollout and its transport.

Each inherits ``serialize.Record``: a manifest records a resolved config as
its ``to_dict`` and ``replay`` reads it back with ``from_dict``, and a
``run --overrides`` file holds one ``EpisodeOverride`` per episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .serialize import Record

# world's shadow tables hold one window-sized int per shadow-casting cell,
# so they grow about as the square of the cells within the range: 0.3 MB
# built in about 5 ms at 5 m (the paper's sensor), 2.5 MB in about 45 ms at
# 10 m, but 38 MB in about 0.9 s at 20 m (Python 3.11, one Xeon core)
MAX_SENSOR_RANGE_M = 10.0

# the values RolloutConfig.mode, .policy and .knowledge may take
MODES = ("lockstep", "distributed")
POLICIES = ("deconav", "static")
KNOWLEDGE = ("known", "discover")


@dataclass(frozen=True)
class SensorConfig(Record):
    """Robot sensing: field of view (degrees) and range (meters)."""

    range_m: float = 5.0
    fov_deg: float = 120.0

    def validate(self) -> None:
        if not 0.0 < self.range_m <= MAX_SENSOR_RANGE_M:
            raise ValueError(
                f"range_m must lie in (0, {MAX_SENSOR_RANGE_M}] m, got {self.range_m!r}"
            )
        if not 0.0 < self.fov_deg <= 360.0:
            raise ValueError(f"fov_deg must lie in (0, 360], got {self.fov_deg!r}")


@dataclass(frozen=True)
class TriggerConfig(Record):
    """Event-driven replanning thresholds."""

    theta_rec: float = 0.5
    n_stag: int = 20
    cooldown: int = 10
    epsilon_hyst: float = 0.5

    def validate(self) -> None:
        if not 0.0 <= self.theta_rec <= 1.0:
            raise ValueError("theta_rec must lie in [0, 1]")
        if self.n_stag < 1 or self.cooldown < 0:
            raise ValueError("n_stag must be positive and cooldown non-negative")
        if not 0.0 <= self.epsilon_hyst < math.inf:
            raise ValueError(
                f"epsilon_hyst must be non-negative and finite, got {self.epsilon_hyst!r}"
            )


@dataclass(frozen=True)
class TransportConfig(Record):
    """Simulated message channel between the two robots."""

    latency: int = 0
    jitter: int = 0
    drop_prob: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be non-negative tick counts")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")


@dataclass(frozen=True)
class RolloutConfig(Record):
    """Execution parameters for one episode rollout."""

    mode: str = "lockstep"
    policy: str = "deconav"
    t_max: int = 500
    tau: int = 10
    r_succ: float = 1.0
    r_int: float = 0.5
    knowledge: str = "known"
    blockage_schedule: tuple[tuple[int, str], ...] = ()
    seed: int = 0
    sensor: SensorConfig = field(default_factory=SensorConfig)
    trigger: TriggerConfig = field(default_factory=TriggerConfig)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.knowledge not in KNOWLEDGE:
            raise ValueError(f"unknown knowledge mode {self.knowledge!r}")
        if self.t_max < 0 or self.tau < 0:
            raise ValueError("t_max and tau must be non-negative")
        late = [tick for tick, _ in self.blockage_schedule if tick >= self.t_max]
        if late:  # it would never fire, yet the trace header would record it
            raise ValueError(f"blockage at tick {min(late)} is at or past t_max {self.t_max}")
        for name in ("r_succ", "r_int"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.sensor.validate()
        self.trigger.validate()


@dataclass(frozen=True)
class EpisodeOverride(Record):
    """One episode's ``[tick, corridor_id]`` blockages and tick limit, which
    replace the run's own."""

    blockages: tuple[tuple[int, str], ...] = ()
    t_max: int | None = None

    def __post_init__(self) -> None:
        if any(tick < 0 for tick, _ in self.blockages) or (self.t_max or 0) < 0:
            raise ValueError("blockage ticks and t_max must be non-negative")

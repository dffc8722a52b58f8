"""Configuration dataclasses for generation, verification, and rollout."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .world import FORWARD_M


@dataclass(frozen=True)
class SceneParams:
    """Knobs for procedural scene generation."""

    grid_width: int = 64
    grid_height: int = 64
    resolution: float = 0.25
    room_rows: int = 3
    room_cols: int = 3
    min_regions: int = 3
    doorway_width: int = 2
    required_rooms: tuple[str, ...] = (
        "Bathroom",
        "Bedroom",
        "Kitchen",
        "LivingRoom",
        "Office",
        "Foyer",
    )
    filler_rooms: tuple[str, ...] = ("Corridor", "Hallway", "DiningRoom")
    n_portables: int = 3
    portable_categories: tuple[str, ...] = ("bottle", "cup", "book", "plant")
    portable_salience: tuple[float, float] = (0.75, 1.0)
    portable_occlusion: tuple[float, float] = (0.0, 0.15)
    signature_salience: tuple[float, float] = (0.7, 0.95)
    signature_occlusion: tuple[float, float] = (0.0, 0.2)
    max_attempts: int = 8

    def validate(self) -> None:
        if not (8 <= self.grid_width <= 256 and 8 <= self.grid_height <= 256):
            raise ValueError("grid dimensions must be within [8, 256]")
        if self.resolution != FORWARD_M:
            raise ValueError(f"resolution must be {FORWARD_M} m, one forward step per cell")
        rooms = self.room_rows * self.room_cols
        if rooms < self.min_regions:
            raise ValueError(
                f"{rooms} rooms is below minimum region count {self.min_regions}"
            )
        if rooms < len(self.required_rooms):
            raise ValueError("not enough rooms to realize every required room type")
        if self.doorway_width < 1:
            raise ValueError("doorway_width must be >= 1")
        # every room interior needs a few cells across for doors and objects
        if (self.grid_width - 1) // self.room_cols - 1 < 5:
            raise ValueError("rooms too narrow for grid width")
        if (self.grid_height - 1) // self.room_rows - 1 < 5:
            raise ValueError("rooms too short for grid height")


@dataclass(frozen=True)
class SensorConfig:
    """Robot sensing: field of view (degrees) and range (meters)."""

    range_m: float = 5.0
    fov_deg: float = 120.0


@dataclass(frozen=True)
class GateConfig:
    """Waypoint verification gates."""

    max_range_m: float = 5.0
    fov_deg: float = 120.0
    theta_rec: float = 0.5


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode sampling budgets and category pools."""

    waypoint_attempts: int = 16
    room_attempts: int = 4
    target_categories: tuple[str, ...] = ("bottle", "cup", "book", "plant")
    handoff_categories: tuple[str, ...] = ("shelf",)
    require_distinct_rooms: bool = True
    gate: GateConfig = field(default_factory=GateConfig)


@dataclass(frozen=True)
class TriggerConfig:
    """Event-driven replanning thresholds."""

    theta_rec: float = 0.5
    n_stag: int = 20
    cooldown: int = 10
    epsilon_hyst: float = 0.5

    def validate(self) -> None:
        if not 0.0 <= self.theta_rec <= 1.0:
            raise ValueError("theta_rec must lie in [0, 1]")
        if self.n_stag < 1 or self.cooldown < 0 or self.epsilon_hyst < 0:
            raise ValueError("trigger thresholds must be non-negative")


@dataclass(frozen=True)
class TransportConfig:
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
class RolloutConfig:
    """Execution parameters for one episode rollout."""

    mode: str = "lockstep"  # "lockstep" | "distributed"
    policy: str = "deconav"  # "deconav" | "static"
    t_max: int = 500
    tau: int = 10
    r_succ: float = 1.0
    r_int: float = 0.5
    knowledge: str = "known"  # "known" | "discover"
    blockage_schedule: tuple[tuple[int, str], ...] = ()
    seed: int = 0
    sensor: SensorConfig = field(default_factory=SensorConfig)
    trigger: TriggerConfig = field(default_factory=TriggerConfig)

    def validate(self) -> None:
        if self.mode not in ("lockstep", "distributed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.policy not in ("deconav", "static"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.knowledge not in ("known", "discover"):
            raise ValueError(f"unknown knowledge mode {self.knowledge!r}")
        if self.t_max < 0 or self.tau < 0:
            raise ValueError("t_max and tau must be non-negative")
        if self.r_succ <= 0 or self.r_int <= 0:
            raise ValueError("r_succ and r_int must be positive")
        self.trigger.validate()


def config_to_dict(cfg) -> dict:
    """Flatten a (possibly nested) config dataclass into plain JSON types."""
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if hasattr(val, "__dataclass_fields__"):
            out[f.name] = config_to_dict(val)
        elif isinstance(val, tuple):
            out[f.name] = [list(v) if isinstance(v, tuple) else v for v in val]
        else:
            out[f.name] = val
    return out

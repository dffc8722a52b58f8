"""Deterministic dual-robot relay navigation simulator and benchmark tools.

Two robots split a fetch-and-deliver instruction into a relay: the first
hand (FH) picks the item up and deposits it at a handoff point, the second
hand (SH) receives it there and carries it to the delivery point.  The
package provides procedural scene and episode generation, a lockstep and a
message-passing rollout engine with event-triggered subtask swapping,
room-label adjudication tooling, and the metric/reporting stack used to
compare coordination policies.
"""

__version__ = "0.1.0"

from .ablation import (
    BlockagePlan,
    BlockageSuite,
    SuiteEntry,
    SuiteParams,
    ablation_report,
    build_blockage_suite,
    pick_route_blockage,
    run_suite,
)
from .agent import AgentState, Plan, make_agent, observe
from .bus import (
    AnchorEntry,
    BusState,
    ComposedContext,
    Observation,
    SemanticPacket,
    compose_context,
    compose_muted,
    empty_bus,
    publish,
)
from .config import (
    RolloutConfig,
    SceneParams,
    SensorConfig,
    TransportConfig,
    TriggerConfig,
)
from .engine import (
    ItemState,
    RolloutError,
    RolloutResult,
    run_distributed,
    run_lockstep,
)
from .episodes import (
    EpisodeGenerationError,
    EpisodeRejection,
    EpisodeSpec,
    dataset_stats,
    generate_episode,
    load_episodes,
    render_instruction,
    save_episodes,
    verify_episode,
)
from .gates import (
    GateReport,
    gate_recognizability,
    gate_room_consistency,
    gate_visibility,
    trigate_check,
)
from .labeling import (
    AdjudicationItem,
    LabelVote,
    SeededNoisyClassifier,
    apply_adjudication,
    export_adjudication,
    import_adjudication,
    label_quality,
    run_labeling,
)
from .manifest import RunManifest, load_manifest, make_manifest, save_manifest
from .metrics import (
    EpisodeResult,
    MetricsReport,
    aggregate,
    compare,
    format_compare,
    format_report,
    score_episode,
)
from .replan import (
    DialogueRecord,
    Event,
    PolicyContext,
    ReplanDecision,
    SwapInputs,
    decide,
    evaluate_swap,
    extract_events,
    filter_events,
    swap_oracle,
)
from .scenegen import generate_scene
from .seeds import derive_seed, make_rng
from .serialize import RecordFormatError
from .tasks import FH_CHAIN, SH_CHAIN, Subtask, build_chains
from .trace import Trace, emit_trace, load_trace
from .transport import Transport
from .world import (
    Geodesics,
    Pose,
    SceneGraph,
    apply_blockage,
    clear_blockage,
    geodesic_distance,
    load_scene,
    save_scene,
    validate_scene,
)

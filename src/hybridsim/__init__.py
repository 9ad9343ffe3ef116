"""Multi-level smart-territory simulator.

Coarse layer: a time-stepped parallel simulation of entities gossiping
over short-range radio on a toroidal territory. Fine layer: on-demand
sub-simulators (vehicle arrivals with emissions, a market-square ad hoc
network) that borrow entities for a while and hand them back, keeping
every random stream and counter exactly reproducible.
"""

from .campaign import emit_results, run_campaign
from .config import (
    ConfigError,
    PRESETS,
    RunSettings,
    load_settings,
    make_params,
    parse_config_file,
    resolve_settings,
)
from .coordination import (
    ENDPOINT_ENV_VAR,
    ConservationError,
    DensityTrigger,
    FixedDurationPolicy,
    HybridSpec,
    Level1Settings,
    ScriptedTrigger,
    TimestepAlignment,
    UntilArrivedPolicy,
    WrapperFailure,
    WrapperHandle,
    coordinate_step,
    reintegrate,
    spawn_level1,
)
from .engine import (
    BarrierTimeoutError,
    EngineConfig,
    EngineError,
    LogicalProcess,
    StepExecutionError,
    partition_entities,
    run_simulation,
)
from .market import MarketParams, MarketRun, MarketScene, route_discover
from .metrics import InvariantMonitor, Level1Totals, RunMetrics, StepReport
from .protocol import LineChannel, ProtocolError, decode_record, encode_record
from .territory import (
    Broadcast,
    DisseminationMessage,
    DisseminationParams,
    EntityRecord,
    TerritorySpec,
    World,
    broadcast_reach,
    make_message_id,
    toroidal_distance,
    world_side,
)
from .transport import TransportParams, TransportResult, simulate_arrivals

__version__ = "0.1.0"

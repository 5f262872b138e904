"""Track join core: tracking, per-key schedule generation, the operator."""

from .messages import location_message_bytes, tracking_message_bytes
from .schedule import (
    BroadcastPlan,
    KeySchedule,
    ScheduleSet,
    both_direction_plans,
    generate_schedules,
    migrate_and_broadcast,
    optimal_schedule,
    selective_broadcast_cost,
)
from .skew import ShardPlan, attach_shards, plan_shards
from .track_join import TrackJoin
from .tracking import TrackingTable, run_tracking_phase

__all__ = [
    "TrackJoin",
    "ShardPlan",
    "plan_shards",
    "attach_shards",
    "both_direction_plans",
    "TrackingTable",
    "run_tracking_phase",
    "BroadcastPlan",
    "KeySchedule",
    "ScheduleSet",
    "selective_broadcast_cost",
    "migrate_and_broadcast",
    "optimal_schedule",
    "generate_schedules",
    "tracking_message_bytes",
    "location_message_bytes",
]

"""The virtual GPU: device specs, launch configuration, cost model,
discrete-event scheduler, broker worklist and per-block metrics."""

from .broker import BrokerWorklist, WorklistStats
from .context import BlockContext, SharedState
from .costmodel import BRANCH_KINDS, KINDS, REDUCE_KINDS, WORK_DISTRIBUTION_KINDS, CostModel
from .device import EPYC_LIKE, PRESETS, SMALL_SIM, TINY_SIM, V100, CPUSpec, DeviceSpec
from .launch import LaunchConfig, select_launch_config, stack_entry_bytes
from .local_stack import LocalStack, StackOverflowError
from .metrics import BlockMetrics, LaunchMetrics
from .scheduler import SimulationError, Simulator

__all__ = [
    "BrokerWorklist",
    "WorklistStats",
    "BlockContext",
    "SharedState",
    "CostModel",
    "KINDS",
    "BRANCH_KINDS",
    "REDUCE_KINDS",
    "WORK_DISTRIBUTION_KINDS",
    "DeviceSpec",
    "CPUSpec",
    "EPYC_LIKE",
    "PRESETS",
    "V100",
    "SMALL_SIM",
    "TINY_SIM",
    "LaunchConfig",
    "select_launch_config",
    "stack_entry_bytes",
    "LocalStack",
    "StackOverflowError",
    "BlockMetrics",
    "LaunchMetrics",
    "SimulationError",
    "Simulator",
]

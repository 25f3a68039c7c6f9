"""CPU substrate: functional execution and cycle-approximate timing."""

from repro.cpu.branch import BranchPredictor
from repro.cpu.config import CoreConfig, CoreInstance, CoreKind, FUConfig
from repro.cpu.functional import (
    ControlFlowEscape,
    DirectMemoryPort,
    ExecutionError,
    FaultSurface,
    FunctionalCore,
    MainNonRepSource,
    MemoryPort,
    NoFaults,
    NonRepSource,
    RunResult,
    to_signed,
)
from repro.cpu.multicore import ThreadRun, run_multicore
from repro.cpu.presets import A35, A510, CORE_CLASSES, X2
from repro.cpu.timing import TimingModel, TimingResult, format_stats
from repro.cpu.traceio import load_run, save_run

__all__ = [
    "A35",
    "A510",
    "BranchPredictor",
    "CORE_CLASSES",
    "ControlFlowEscape",
    "CoreConfig",
    "CoreInstance",
    "CoreKind",
    "DirectMemoryPort",
    "ExecutionError",
    "FUConfig",
    "FaultSurface",
    "FunctionalCore",
    "MainNonRepSource",
    "MemoryPort",
    "NoFaults",
    "NonRepSource",
    "RunResult",
    "ThreadRun",
    "TimingModel",
    "TimingResult",
    "X2",
    "format_stats",
    "load_run",
    "run_multicore",
    "save_run",
    "to_signed",
]

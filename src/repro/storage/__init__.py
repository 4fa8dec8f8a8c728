"""Secondary-storage substrate: spill files, pages, stats and cost model."""

from repro.storage.costmodel import (
    DEFAULT_COST_MODEL,
    IO_BOUND_COST_MODEL,
    SCALED_COST_MODEL,
    CostModel,
    ResourceCost,
)
from repro.storage.pages import DEFAULT_PAGE_BYTES, Page, PageBuilder
from repro.storage.spill import (
    DiskSpillBackend,
    MemorySpillBackend,
    SpillFile,
    SpillManager,
)
from repro.storage.stats import IOStats, OperatorStats

__all__ = [
    "CostModel",
    "ResourceCost",
    "DEFAULT_COST_MODEL",
    "IO_BOUND_COST_MODEL",
    "SCALED_COST_MODEL",
    "Page",
    "PageBuilder",
    "DEFAULT_PAGE_BYTES",
    "SpillFile",
    "SpillManager",
    "MemorySpillBackend",
    "DiskSpillBackend",
    "IOStats",
    "OperatorStats",
]

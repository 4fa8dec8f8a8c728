"""Workload builders for the experiment harness.

A :class:`Workload` bundles everything a top-k experiment needs: the input
row stream (regenerable for each algorithm under test), the sort spec, the
requested output size and the memory budget.  Rows come in two shapes:

* *keys-only* — single-column ``(key,)`` tuples, the shape used for the
  analysis-style experiments where payload adds nothing;
* *lineitem* — full 16-column TPC-H rows with the key injected into
  ``L_ORDERKEY``, matching the paper's evaluation query
  (``SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT k``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.datagen.distributions import Distribution, UNIFORM, key_stream
from repro.errors import ConfigurationError
from repro.rows.lineitem import LINEITEM_SCHEMA, generate_lineitem
from repro.rows.schema import Schema, single_key_schema
from repro.rows.sortspec import SortSpec


@dataclass
class Workload:
    """A repeatable top-k workload.

    Attributes:
        name: Display name for reports.
        schema: Row schema.
        sort_spec: Compiled ORDER BY.
        k: Requested output size.
        input_rows: Total input row count.
        memory_rows: Operator memory capacity in rows.
        make_input: Zero-argument callable returning a fresh row iterator;
            called once per algorithm so every contender sees identical data.
    """

    name: str
    schema: Schema
    sort_spec: SortSpec
    k: int
    input_rows: int
    memory_rows: int
    make_input: Callable[[], Iterator[tuple]]
    distribution_label: str = "uniform"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigurationError("k must be positive")
        if self.input_rows < 0:
            raise ConfigurationError("input_rows must be non-negative")
        if self.memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")

    @property
    def output_exceeds_memory(self) -> bool:
        """Whether this workload forces the external (spilling) path."""
        return self.k > self.memory_rows


def keys_only_workload(
    input_rows: int,
    k: int,
    memory_rows: int,
    distribution: Distribution = UNIFORM,
    seed: int = 0,
    name: str | None = None,
) -> Workload:
    """Single-column workload with keys drawn from ``distribution``."""
    schema = single_key_schema()
    spec = SortSpec(schema, ["key"])

    def make_input() -> Iterator[tuple]:
        return ((key,) for key in key_stream(distribution, input_rows,
                                             seed=seed))

    return Workload(
        name=name or (f"{distribution.label} n={input_rows} k={k} "
                      f"mem={memory_rows}"),
        schema=schema,
        sort_spec=spec,
        k=k,
        input_rows=input_rows,
        memory_rows=memory_rows,
        make_input=make_input,
        distribution_label=distribution.label,
    )


def lineitem_workload(
    input_rows: int,
    k: int,
    memory_rows: int,
    distribution: Distribution = UNIFORM,
    seed: int = 0,
    name: str | None = None,
) -> Workload:
    """Full-width LINEITEM workload sorting on ``L_ORDERKEY``.

    Reproduces the paper's evaluation query: all 16 columns are projected so
    the payload must travel through run generation and merging.
    """
    spec = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY"])

    def make_input() -> Iterator[tuple]:
        keys = key_stream(distribution, input_rows, seed=seed)
        return generate_lineitem(input_rows, key_values=keys, seed=seed)

    return Workload(
        name=name or (f"lineitem {distribution.label} n={input_rows} "
                      f"k={k} mem={memory_rows}"),
        schema=LINEITEM_SCHEMA,
        sort_spec=spec,
        k=k,
        input_rows=input_rows,
        memory_rows=memory_rows,
        make_input=make_input,
        distribution_label=distribution.label,
    )

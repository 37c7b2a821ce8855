"""Declarative benchmark-matrix configuration (TOML or JSON).

A matrix file declares *factors* (each a list of values), a *cell template*
(the run parameters, with ``{factor}`` references), and named *graph specs*;
the harness expands the cross product of all factor values into cells:

.. code-block:: toml

    label = "fig7-threads"
    repetitions = 3
    warmup = 1

    [factors]
    graph = ["LiveJournal", "UK-2005"]
    ranks = [1, 2, 4]

    [cell]
    variant = "parallel"
    machine = "p7ih"
    work_scale = "paper"

    [graphs.LiveJournal]
    family = "social"
    name = "LiveJournal"

Interpolation: a template value that is exactly ``"{name}"`` is replaced by
the *typed* factor value (``ranks = "{ranks}"`` stays an int); any other
string is ``str.format``-ed over the factor mapping.  A factor value may be
an inline table -- then its fields are merged into the cell's parameters at
once, which is how paired sweeps (weak scaling's ranks growing with graph
size) stay a single factor axis; an optional ``_name`` field inside names the
value in the cell id.  An ``exclude`` list of partial factor assignments
prunes combinations.

The file format is TOML (read with :mod:`tomllib`); ``.json`` files load as
the same structure verbatim.
"""

from __future__ import annotations

import itertools
import json
import tomllib
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "BenchConfigError",
    "BenchConfig",
    "Cell",
    "read_config_file",
    "load_config",
    "parse_config",
    "expand_cells",
    "interpolate",
]


class BenchConfigError(ValueError):
    """A matrix file is malformed or references unknown entities."""


@dataclass(frozen=True)
class Cell:
    """One expanded point of the benchmark matrix."""

    #: Stable id, ``name=value`` over the declared factor order.
    cell_id: str
    #: Factor assignment that produced this cell (display values).
    factors: dict[str, Any]
    #: Fully interpolated run parameters (template merged over factor fields).
    params: dict[str, Any]


@dataclass
class BenchConfig:
    """Parsed matrix file."""

    label: str
    repetitions: int = 3
    warmup: int = 1
    timeout_seconds: float | None = None
    factors: dict[str, list[Any]] = field(default_factory=dict)
    cell: dict[str, Any] = field(default_factory=dict)
    graphs: dict[str, dict[str, Any]] = field(default_factory=dict)
    exclude: list[dict[str, Any]] = field(default_factory=list)

    def resolve_graph(self, name: str, namespace: Mapping[str, Any]) -> dict[str, Any]:
        """Graph spec by name with ``{factor}`` references resolved."""
        if name not in self.graphs:
            raise BenchConfigError(
                f"cell references unknown graph {name!r}; "
                f"declared: {sorted(self.graphs)}"
            )
        return {
            key: interpolate(value, namespace)
            for key, value in self.graphs[name].items()
        }


def read_config_file(path: str) -> Any:
    """Decode a TOML file, or a JSON one when the path ends ``.json``."""
    with open(path, "rb") as fh:
        return json.load(fh) if path.endswith(".json") else tomllib.load(fh)


def load_config(path: str) -> BenchConfig:
    """Load and validate a matrix file (TOML unless the path ends ``.json``)."""
    return parse_config(read_config_file(path))


def parse_config(data: Mapping[str, Any]) -> BenchConfig:
    """Validate a decoded mapping into a :class:`BenchConfig`."""
    if not isinstance(data, Mapping):
        raise BenchConfigError("matrix file must decode to a table")
    label = data.get("label")
    if not label or not isinstance(label, str):
        raise BenchConfigError("matrix file needs a string 'label'")
    repetitions = int(data.get("repetitions", 3))
    warmup = int(data.get("warmup", 1))
    if repetitions < 1:
        raise BenchConfigError("repetitions must be >= 1")
    if warmup < 0:
        raise BenchConfigError("warmup must be >= 0")
    timeout = data.get("timeout_seconds")
    factors = data.get("factors", {})
    if not isinstance(factors, Mapping) or not all(
        isinstance(v, list) and v for v in factors.values()
    ):
        raise BenchConfigError("'factors' must map names to non-empty lists")
    cell = data.get("cell", {})
    if not isinstance(cell, Mapping):
        raise BenchConfigError("'cell' must be a table")
    graphs = data.get("graphs", {})
    if not isinstance(graphs, Mapping) or not all(
        isinstance(v, Mapping) for v in graphs.values()
    ):
        raise BenchConfigError("'graphs' must map names to tables")
    exclude = data.get("exclude", [])
    if not isinstance(exclude, list) or not all(
        isinstance(e, Mapping) for e in exclude
    ):
        raise BenchConfigError("'exclude' must be a list of tables")
    return BenchConfig(
        label=str(label),
        repetitions=repetitions,
        warmup=warmup,
        timeout_seconds=None if timeout is None else float(timeout),
        factors={str(k): list(v) for k, v in factors.items()},
        cell=dict(cell),
        graphs={str(k): dict(v) for k, v in graphs.items()},
        exclude=[dict(e) for e in exclude],
    )


# --------------------------------------------------------------------- #
# Expansion
# --------------------------------------------------------------------- #


def interpolate(value: Any, namespace: Mapping[str, Any]) -> Any:
    """Resolve ``{name}`` references in a template value.

    A string that is exactly one reference substitutes the raw (typed)
    value; any other string goes through :meth:`str.format`; containers
    recurse; everything else passes through.
    """
    if isinstance(value, str):
        if value.startswith("{") and value.endswith("}") and value.count("{") == 1:
            key = value[1:-1]
            if key not in namespace:
                raise BenchConfigError(f"unknown reference {value!r} in template")
            return namespace[key]
        try:
            return value.format(**namespace)
        except KeyError as exc:
            raise BenchConfigError(
                f"unknown reference {exc.args[0]!r} in template string {value!r}"
            ) from None
    if isinstance(value, list):
        return [interpolate(v, namespace) for v in value]
    if isinstance(value, Mapping):
        return {k: interpolate(v, namespace) for k, v in value.items()}
    return value


def _display(value: Any) -> str:
    if isinstance(value, Mapping):
        if "_name" in value:
            return str(value["_name"])
        return "+".join(f"{k}:{v}" for k, v in value.items())
    return str(value)


def _matches(assignment: Mapping[str, Any], pattern: Mapping[str, Any]) -> bool:
    return all(key in assignment and assignment[key] == v for key, v in pattern.items())


def expand_cells(config: BenchConfig) -> list[Cell]:
    """Cross product of all factor values, minus ``exclude`` matches.

    With no factors the matrix is the single cell described by the template
    (cell id equals the label).
    """
    names = list(config.factors)
    cells: list[Cell] = []
    for combo in itertools.product(*(config.factors[n] for n in names)):
        display = {name: _display(value) for name, value in zip(names, combo)}
        # Exclude patterns match either the display strings (stringified, so
        # `nodes = 64` matches display "64") or the raw factor values.
        if any(
            _matches(display, {k: str(v) for k, v in pat.items()})
            or _matches(dict(zip(names, combo)), pat)
            for pat in config.exclude
        ):
            continue
        # Factor fields: scalar factors bind their own name; table-valued
        # factors merge their fields (paired sweeps).
        fields: dict[str, Any] = {}
        for name, value in zip(names, combo):
            if isinstance(value, Mapping):
                fields.update(
                    {k: v for k, v in value.items() if not k.startswith("_")}
                )
            else:
                fields[name] = value
        params = dict(fields)
        params.update(
            {key: interpolate(v, fields) for key, v in config.cell.items()}
        )
        cell_id = (
            ",".join(f"{name}={display[name]}" for name in names)
            if names
            else config.label
        )
        cells.append(Cell(cell_id=cell_id, factors=display, params=params))
    if not cells:
        raise BenchConfigError("matrix expands to zero cells")
    return cells

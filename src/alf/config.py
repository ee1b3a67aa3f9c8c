"""Scenario configuration: the schema, its checker and the object builders.

Configurations are plain JSON.  `_schema_errors` checks SCENARIO_SCHEMA's
keywords with Draft 2020-12's meaning, except that an integer is a JSON
integer and a number is finite (within a double's range), neither a bool, so
a builder reads only values of the type it needs.  Unknown keys are rejected so presets
round-trip unchanged and typos fail loudly before any computation starts.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction

from .dynamics import IntegratorConfig, Perturbation, PerturbedSystem
from .errors import ConfigError, InvalidGraphError
from .graph import Graph
from .precision import exact
from .prng import SplitMix64
from .response import ResponseField, ResponseFunction

_NUM = {"type": "number"}
_NODE = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}  # SplitMix64 keeps a seed's low 64 bits
_RANGE = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}

# the most points of one analysis grid or singular-point scan; a manifold scan
# holds arrays of about 32 bytes per grid point, so this bounds it near 128 MiB
MAX_GRID_POINTS = 2**22

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "graph": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "n"],
            "properties": {
                "type": {"enum": ["complete", "cycle", "path", "custom"]},
                "n": {"type": "integer", "minimum": 1},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "prefixItems": [_NODE, _NODE, {"type": "number", "exclusiveMinimum": 0}],
                        "minItems": 2,
                        "maxItems": 3,
                    },
                },
            },
        },
        "response": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "properties": {
                "coeffs": {"type": "array", "items": _NUM, "minItems": 1},
                "roots": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "prefixItems": [_NUM, {"type": "integer", "minimum": 1}],
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "scale": _NUM,
                "family": {"enum": ["ex3a", "ex3b"]},
                "lambda": _NUM,
            },
        },
        "perturbation": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "constant": {
                    "type": "object",
                    "additionalProperties": False,
                    "minProperties": 1,
                    "maxProperties": 1,
                    "properties": {
                        "values": {"type": "array", "items": _NUM, "minItems": 1},
                        "value": _NUM,
                    },
                },
                "random": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["seed", "lo", "hi"],
                    "properties": {"seed": _SEED, "lo": _NUM, "hi": _NUM},
                },
            },
        },
        "epsilon": {"type": "number", "minimum": 0},
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["rk4", "dp45"]},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "digits": {"type": "integer", "enum": [16, 32, 64]},
                "stride": {"type": "integer", "minimum": 1},
            },
        },
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "explicit": {"type": "array", "items": _NUM, "minItems": 1},
                "random": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["seed", "lo", "hi"],
                    "properties": {"seed": _SEED, "lo": _NUM, "hi": _NUM},
                },
                "consensus": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["c"],
                    "properties": {"c": _NUM},
                },
                "plane": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["k0"],
                    "properties": {"x0": {"type": ["number", "null"]}, "k0": _NUM},
                },
            },
        },
        "tspan": _RANGE,
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k_range": _RANGE,
                "x_range": _RANGE,
                "grid": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "residual_tol": {"type": "number", "exclusiveMinimum": 0},
                "lambda_values": {"type": "array", "items": _NUM, "minItems": 1},
                "eliminate": {"type": "integer", "minimum": 1},
                "scan_points": {"type": "integer", "minimum": 3, "maximum": MAX_GRID_POINTS},
            },
        },
    },
}


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # finite: a double holds it, so an integer beyond about 1.8e308 is no number either
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
}

_BOUNDS = (("minimum", operator.lt, "below"), ("exclusiveMinimum", operator.le, "not above"),
           ("maximum", operator.gt, "above"))


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield (path, message) for every way `value` breaks `schema`.

    As in Draft 2020-12, every keyword is checked on its own: a bound applies
    only to a number, `properties` only to the keys present, `items` only
    after the `prefixItems`.  An unknown key is one error at its object.
    """
    names = schema.get("type", [])
    names = [names] if isinstance(names, str) else names
    if names and not any(_TYPES[name](value) for name in names):
        yield path, f"{value!r} is not of type {' or '.join(names)}"
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']}"
    if _TYPES["number"](value):
        for key, fails, text in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                yield path, f"{value!r} is {text} {key} {schema[key]}"
    if isinstance(value, (dict, list)):
        kind = "Properties" if isinstance(value, dict) else "Items"
        if len(value) < schema.get("min" + kind, 0):
            yield path, f"has {len(value)} {kind.lower()}, fewer than min{kind} {schema['min' + kind]}"
        if len(value) > schema.get("max" + kind, len(value)):
            yield path, f"has {len(value)} {kind.lower()}, more than max{kind} {schema['max' + kind]}"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        yield from ((path, f"{key!r} is a required property")
                    for key in schema.get("required", []) if key not in value)
        unexpected = [key for key in value if key not in props]
        if schema.get("additionalProperties") is False and unexpected:
            yield path, f"unexpected keys: {', '.join(map(repr, unexpected))}"
        for key, sub in props.items():
            if key in value:
                yield from _schema_errors(sub, value[key], (*path, key))
    if isinstance(value, list):
        prefix = schema.get("prefixItems", [])
        for index, item in enumerate(value):
            sub = prefix[index] if index < len(prefix) else schema.get("items")
            if sub is not None:
                yield from _schema_errors(sub, item, (*path, index))


def validate_config(cfg: dict) -> dict:
    """Check a scenario against SCENARIO_SCHEMA; raises ConfigError listing every problem.

    Beyond the schema, `tspan` and `analysis/x_range` must increase: the
    integrator and the root scans have no meaning on a reversed interval.
    `k_range` may run either way for a manifold scan; `divergence`, whose
    integral is taken from k_range[0] to k_range[1], rejects a descending one.
    `analysis/grid` may hold at most MAX_GRID_POINTS points in all.
    """
    errors = sorted(_schema_errors(SCENARIO_SCHEMA, cfg), key=lambda error: error[0])
    if errors:
        raise ConfigError([f"{'/'.join(map(str, path)) or '<root>'}: {message}" for path, message in errors])
    analysis = cfg.get("analysis", {})
    ranges = (("tspan", cfg.get("tspan")), ("analysis/x_range", analysis.get("x_range")))
    details = [f"{path}: {bounds} must increase" for path, bounds in ranges
               if bounds is not None and not bounds[0] < bounds[1]]
    grid = analysis.get("grid")
    if grid is not None and grid[0] * grid[1] > MAX_GRID_POINTS:
        details.append(f"analysis/grid: {grid[0]} x {grid[1]} points exceed the limit of {MAX_GRID_POINTS}")
    if details:
        raise ConfigError(details)
    return cfg


def build_graph(spec: dict) -> Graph:
    """The graph of a `graph` section; a cycle or edge list that Graph refuses is a ConfigError."""
    kind = spec["type"]
    n = spec["n"]
    if kind == "complete":
        return Graph.complete(n)
    if kind == "path":
        return Graph.path(n)
    if kind == "custom" and not spec.get("edges"):
        raise ConfigError(["graph: custom graphs need an edge list"])
    try:
        if kind == "cycle":
            return Graph.cycle(n)
        return Graph.from_edge_list(n, spec["edges"])
    except InvalidGraphError as err:
        raise ConfigError([f"graph/{'n' if kind == 'cycle' else 'edges'}: {err}"]) from err


def build_response(spec: dict) -> ResponseFunction:
    if "family" in spec:
        if "lambda" not in spec:
            raise ConfigError(["response: family form needs a lambda value"])
        return ResponseFunction.family(spec["family"], spec["lambda"])
    if "roots" in spec:
        return ResponseFunction.from_roots(spec["roots"], spec.get("scale", 1))
    if "coeffs" in spec:
        return ResponseFunction.from_coeffs(spec["coeffs"])
    raise ConfigError(["response: need coeffs, roots, or family"])


def build_perturbation(spec: dict | None, n: int) -> Perturbation:
    if spec is None:
        return Perturbation.zero(n)
    if "constant" in spec:
        inner = spec["constant"]
        if "values" in inner:
            values = inner["values"]
            if len(values) != n:
                raise ConfigError([f"perturbation: expected {n} values, got {len(values)}"])
            return Perturbation.constant(values)
        return Perturbation.constant(inner["value"], n)
    inner = spec["random"]
    return Perturbation.random_constant(n, inner["seed"], inner["lo"], inner["hi"])


def build_integrator(spec: dict | None) -> IntegratorConfig:
    return IntegratorConfig(**(spec or {}))


def build_initial(spec: dict, n: int) -> list[Fraction]:
    """Full-system initial state; the plane form is handled by the canard path."""
    if "explicit" in spec:
        values = spec["explicit"]
        if len(values) != n:
            raise ConfigError([f"initial: expected {n} components, got {len(values)}"])
        return [exact(v) for v in values]
    if "random" in spec:
        inner = spec["random"]
        rng = SplitMix64(inner["seed"])
        return [exact(rng.uniform(inner["lo"], inner["hi"])) for _ in range(n)]
    if "consensus" in spec:
        return [exact(spec["consensus"]["c"])] * n
    raise ConfigError(["initial: plane initial conditions only apply to the canard command"])


def require(cfg: dict, *sections: str) -> None:
    """Raise one ConfigError naming every section of `sections` that cfg lacks."""
    missing = [s for s in sections if s not in cfg]
    if missing:
        raise ConfigError([f"{s}: section is required for this command" for s in missing])


def build_system(cfg: dict) -> PerturbedSystem:
    require(cfg, "graph", "response")
    graph = build_graph(cfg["graph"])
    response = ResponseField(build_response(cfg["response"]))
    perturbation = build_perturbation(cfg.get("perturbation"), graph.n)
    return PerturbedSystem(graph, response, perturbation, exact(cfg.get("epsilon", 0)))

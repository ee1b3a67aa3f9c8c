"""The scenario-schema checker against jsonschema as the oracle, and what it keeps out of alf."""

import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from alf.config import SCENARIO_SCHEMA, _schema_errors, validate_config
from alf.errors import ConfigError
from alf.presets import PRESET_NAMES, get_preset

# the keywords `_schema_errors` implements; `$schema` is read by no one
KEYWORDS = {"$schema", "type", "enum", "minimum", "exclusiveMinimum", "maximum", "properties", "required",
            "additionalProperties", "minProperties", "maxProperties", "items", "prefixItems", "minItems",
            "maxItems"}


def _integer(checker, value):
    return isinstance(value, int) and not isinstance(value, bool)


def _number(checker, value):
    if isinstance(value, float):
        return math.isfinite(value)
    return _integer(checker, value) and abs(value) <= sys.float_info.max


# Draft 2020-12 with alf's types: an integer is a JSON integer, a number is finite (an int too: a double
# must hold it), neither is a bool
_Strict = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"number": _number, "integer": _integer}),
)
ORACLE = _Strict(SCENARIO_SCHEMA)


def _subschemas(schema):
    yield schema
    for sub in list(schema.get("properties", {}).values()) + schema.get("prefixItems", []):
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


PROPERTY_NAMES = sorted({name for sub in _subschemas(SCENARIO_SCHEMA) for name in sub.get("properties", {})})
ENUM_VALUES = sorted({value for sub in _subschemas(SCENARIO_SCHEMA) for value in sub.get("enum", [])}, key=repr)

_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, float("1e400"), 0.0, -0.0, 1.0, 2.0, 3.0, 16.0, 32.0, 1.5,
                     4194304.0, 4194305, 10**400, -10**400]),
    st.sampled_from(ENUM_VALUES),
    st.text(max_size=4),
)
_KEYS = st.one_of(st.sampled_from(PROPERTY_NAMES), st.text(max_size=4))
_JSON = st.recursive(
    _ATOMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _instance(schema):
    """A value holding every property and item position that `schema` names, each scalar 0.5."""
    if "properties" in schema:
        return {key: _instance(sub) for key, sub in schema["properties"].items()}
    items = [_instance(sub) for sub in schema.get("prefixItems", [])]
    if "items" in schema:
        items.append(_instance(schema["items"]))
    return items if "prefixItems" in schema or "items" in schema else 0.5


def _leaves(value, path=()):
    """Path of every scalar in a JSON value."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _leaves(item, (*path, key))
    else:
        yield path


def _replaced(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


# every bound and enum value in the schema, on either side and as a float, and the values the types refuse
_BOUND_VALUES = sorted({sub[key] for sub in _subschemas(SCENARIO_SCHEMA)
                        for key in ("minimum", "exclusiveMinimum", "maximum") if key in sub}
                       | {value for value in ENUM_VALUES if isinstance(value, int)})
EDGE_VALUES = [v for b in _BOUND_VALUES for v in (b - 1, b, b + 1, float(b), b - 0.5, b + 0.5)] + [
    -0.0, math.nan, math.inf, -math.inf, float("1e400"), 10**400, -10**400, int(sys.float_info.max),
    True, False, None, "x", [], {}, [1, 2], *ENUM_VALUES]


def _containers(value):
    """Every dict and list in a JSON value, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _containers(item)


@st.composite
def _mutated_presets(draw):
    cfg = get_preset(draw(st.sampled_from(PRESET_NAMES)))
    for _ in range(draw(st.integers(1, 3))):
        container = draw(st.sampled_from(list(_containers(cfg))))
        keys = list(container) if isinstance(container, dict) else list(range(len(container)))
        action = draw(st.sampled_from(["replace", "delete", "add"])) if keys else "add"
        if action == "add" and isinstance(container, dict):
            container[draw(_KEYS)] = draw(_JSON)
        elif action == "add":
            container.append(draw(_JSON))
        elif action == "delete":
            del container[draw(st.sampled_from(keys))]
        else:
            container[draw(st.sampled_from(keys))] = draw(_JSON)
    return cfg


def _assert_agrees_with_oracle(cfg):
    expected = sorted((tuple(err.absolute_path) for err in ORACLE.iter_errors(cfg)), key=list)
    found = [path for path, _ in _schema_errors(SCENARIO_SCHEMA, cfg)]
    assert sorted(found, key=list) == expected
    try:
        validate_config(cfg)
    except ConfigError as err:
        details = err.details
    else:
        details = []
    if expected:
        assert len(details) == len(expected)
        for detail, path in zip(details, expected):
            assert detail.startswith(("/".join(map(str, path)) or "<root>") + ": ")
    else:  # only the checks beyond the schema may refuse it
        assert all(d.startswith(("tspan: ", "analysis/x_range: ", "analysis/grid: ")) for d in details)


def test_checker_agrees_with_oracle_at_every_bound_of_every_key():
    full = _instance(SCENARIO_SCHEMA)
    leaves = list(_leaves(full))
    assert len(leaves) > 30 and ("graph", "edges", 0, 2) in leaves
    for path in leaves:
        for value in EDGE_VALUES:
            _assert_agrees_with_oracle(_replaced(full, path, value))


@settings(max_examples=400, deadline=None)
@given(cfg=_mutated_presets())
def test_checker_agrees_with_oracle_on_mutated_presets(cfg):
    _assert_agrees_with_oracle(cfg)


@settings(max_examples=400, deadline=None)
@given(cfg=_JSON | st.dictionaries(_KEYS, _JSON, max_size=6))
def test_checker_agrees_with_oracle_on_random_json(cfg):
    _assert_agrees_with_oracle(cfg)


def test_presets_pass_checker_and_oracle():
    for name in PRESET_NAMES:
        assert list(ORACLE.iter_errors(get_preset(name))) == []
        assert list(_schema_errors(SCENARIO_SCHEMA, get_preset(name))) == []


def test_schema_uses_only_checked_keywords():
    used = {key for sub in _subschemas(SCENARIO_SCHEMA) for key in sub}
    assert used <= KEYWORDS
    assert "prefixItems" in used and "additionalProperties" in used


@pytest.mark.parametrize("value", [3.0, True, math.nan, math.inf, -math.inf, float("1e400"), 10**400])
def test_numbers_are_finite_and_integers_are_json_integers(value):
    base = get_preset("ex1")
    if value != 10**400:
        with pytest.raises(ConfigError) as err:
            validate_config({**base, "graph": {"type": "complete", "n": value}})
        assert err.value.details == [f"graph/n: {value!r} is not of type integer"]
    if value != 3.0:
        with pytest.raises(ConfigError) as err:
            validate_config({**base, "epsilon": value})
        assert err.value.details == [f"epsilon: {value!r} is not of type number"]


def test_errors_list_every_problem_by_path():
    cfg = {**get_preset("ex1"), "integrator": {"digits": 32.0, "stride": 100.0, "seed": 0}, "epsilon": -1,
           "graph": {"type": "custom", "n": 3, "edges": [[1.5, 2.7], [2, 3, 0]]}}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.details == [
        "epsilon: -1 is below minimum 0",
        "graph/edges/0/0: 1.5 is not of type integer",
        "graph/edges/0/1: 2.7 is not of type integer",
        "graph/edges/1/2: 0 is not above exclusiveMinimum 0",
        "integrator: unexpected keys: 'seed'",
        "integrator/digits: 32.0 is not of type integer",
        "integrator/stride: 100.0 is not of type integer",
    ]
    with pytest.raises(ConfigError) as err:
        validate_config([1, 2])
    assert err.value.details == ["<root>: [1, 2] is not of type object"]


def test_seeds_fit_the_splitmix_state():
    # SplitMix64 keeps a seed's low 64 bits, so 2**64 would silently replay seed 0
    cfg = {**get_preset("ex2-unweighted"), "initial": {"random": {"seed": 2**64, "lo": -1, "hi": 0}}}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.details == [f"initial/random/seed: {2**64} is above maximum {2**64 - 1}"]


def test_cli_import_loads_no_jsonschema():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", "import sys, alf.cli; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    # mpmath is imported on the first 32/64-digit run or mpf value, not with alf
    assert {"alf", "numpy"} <= loaded and "mpmath" not in loaded
    assert loaded.isdisjoint({"jsonschema", "referencing", "rpds", "attrs", "attr", "jsonschema_specifications"})

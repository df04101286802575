"""The scenario check against jsonschema: the same errors in the same order and, on a refusal, the same words."""

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georelay.errors import ConfigError
from georelay.scenario import DEFAULT_CONFIG, SCHEMA, _errors, resolve_config

# the keywords _errors reads; a schema keyword outside them would be skipped silently
_KEYWORDS = {
    "type", "enum", "minimum", "exclusiveMinimum", "minItems", "items", "properties", "required", "additionalProperties",
}


def _subschemas(schema: dict):
    """``schema`` and every schema nested in it under ``properties`` or ``items``."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_schema_uses_only_keywords_the_check_reads():
    # with its keywords inside _KEYWORDS, no schema nests below properties and items
    for schema in _subschemas(SCHEMA):
        assert schema.keys() <= _KEYWORDS, schema
        assert schema.get("type", "object") in {"object", "array", "number", "integer"}, schema
        assert schema.get("additionalProperties", False) is False, schema
        # _errors compares enum members with `in`, which jsonschema's equality matches for strings only
        assert all(type(member) is str for member in schema.get("enum", ())), schema


_NUMBERS = st.one_of(
    st.integers(-3, 400),
    st.integers(-3, 400).map(float),
    st.floats(),
    st.floats(0.0, 1e12),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, float("nan"), float("inf"), float("-inf")]),
)
_ODD = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.sampled_from(["msr", "mbr", "MSR"]))
_VALUES = st.recursive(
    st.one_of(_NUMBERS, _ODD),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_LEO_KEYS = list(DEFAULT_CONFIG["constellation"]["leos"][0])
_FIELD_NAMES = [(block, name) for block, fields in DEFAULT_CONFIG.items() for name in fields]


@st.composite
def _leo(draw):
    """A LEO item with any of its keys missing, a wrong value or an extra key."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_VALUES)
    leo = {key: draw(_NUMBERS | _ODD) for key in _LEO_KEYS if draw(st.integers(0, 9))}
    if draw(st.integers(0, 4)) == 0:
        leo[draw(st.sampled_from(["altitude", "mass_kg", ""]))] = draw(_NUMBERS)
    return leo


def _field_value(name: str):
    if name == "leos":
        return st.lists(_leo(), max_size=3) | _VALUES
    if name == "carriers_hz":
        return st.lists(_NUMBERS | _ODD, max_size=3) | _VALUES
    return st.one_of(_NUMBERS, _NUMBERS, _ODD, _VALUES)


@st.composite
def _scenarios(draw):
    """A scenario mutated from the defaults: wrong types, bad numbers, missing or extra keys, or no object at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(_VALUES)
    user: dict = {}
    for block, name in draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=4, unique=True)):
        user.setdefault(block, {})[name] = draw(_field_value(name))
    if draw(st.integers(0, 5)) == 0:
        user[draw(st.sampled_from(["mystery_block", "downlink", "code", ""]))] = draw(_VALUES)
    if draw(st.integers(0, 5)) == 0:
        user.setdefault(draw(st.sampled_from(list(DEFAULT_CONFIG))), {})
    return user


_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_scenarios())
def test_check_agrees_with_jsonschema(user):
    errors = list(_errors(user, SCHEMA))
    assert errors == [(tuple(err.absolute_path), err.message) for err in _VALIDATOR.iter_errors(user)]
    if errors:
        # the error jsonschema.validate raises, without its check of SCHEMA itself (about 20 ms a call),
        # which test_schema_is_valid_and_errors_read_as_jsonschema_validate makes once
        err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(user))
        with pytest.raises(ConfigError) as got:
            resolve_config(user)
        assert str(got.value) == f"scenario invalid: {err.message} (at {list(err.absolute_path)})"

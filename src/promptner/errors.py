"""Exception hierarchy shared across the library, and the type and rule check of configs."""

import json
import sys
from dataclasses import field, fields


class PromptnerError(ValueError):
    """Base class for all library errors."""


class DimensionError(PromptnerError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(PromptnerError):
    """A caller violated a documented precondition."""


class ConfigError(PromptnerError):
    """A configuration value is out of its valid range."""


class SizingError(PromptnerError):
    """An input exceeds a configured size limit (e.g. max sequence length)."""


class DataError(PromptnerError):
    """A data file is malformed or inconsistent."""


# JSON types a config value may have, by field type (annotations are strings
# here): ints pass as floats, and only a bool passes as a bool (true is not 1)
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}

# the range rules a config field may declare; a rule's text is its refusal's
RANGES = {">= 0": lambda x: x >= 0, ">= 1": lambda x: x >= 1,
          "in [0, 1)": lambda x: 0 <= x < 1, "in [0, 1]": lambda x: 0 <= x <= 1,
          "in (0, 1)": lambda x: 0 < x < 1}


def typed(key, value, kind):
    """``value`` if it has the JSON type of field type ``kind`` (and, for a
    float, is finite); a value of no JSON type is shown as its quoted repr."""
    if (isinstance(value, bool) != (kind == "bool") or not isinstance(value, _FIELD_TYPES[kind])
            or (kind == "float" and not abs(value) <= sys.float_info.max)):
        raise ConfigError(f"{key} must be {kind}, got {json.dumps(value, default=repr)}")
    return value


def check_rule(key, value, rule):
    """``value`` if it meets ``rule``: a range (a key of ``RANGES``), a tuple
    of the allowed values, or a class it must be an instance of."""
    if isinstance(rule, type):
        ok, text = isinstance(value, rule), rule.__name__
    elif isinstance(rule, tuple):
        ok, text = value in rule, " or ".join(map(json.dumps, rule))
    else:
        ok, text = RANGES[rule](value), rule
    if not ok:
        raise ConfigError(f"{key} must be {text}, got {json.dumps(value, default=repr)}")
    return value


def ruled(default, rule):
    """A config dataclass field defaulting to ``default``, held to ``rule`` by ``check_fields``."""
    return field(default=default, metadata={"rule": rule})


def check_fields(config):
    """Hold each field of a config dataclass to its type (``typed``, for int,
    float, bool and str fields) and to its declared rule, if it has one."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES:
            typed(f.name, value, f.type)
        if "rule" in f.metadata:
            check_rule(f.name, value, f.metadata["rule"])

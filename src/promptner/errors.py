"""Exception hierarchy shared across the library, and the type check of configs."""

import json
import sys
from dataclasses import fields


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


def typed(key, value, kind):
    """``value`` if it has the JSON type of field type ``kind`` (and, for a
    float, is finite); a value of no JSON type is shown as its quoted repr."""
    if (isinstance(value, bool) != (kind == "bool") or not isinstance(value, _FIELD_TYPES[kind])
            or (kind == "float" and not abs(value) <= sys.float_info.max)):
        raise ConfigError(f"{key} must be {kind}, got {json.dumps(value, default=repr)}")
    return value


def check_field_types(config):
    """Apply ``typed`` to each int, float, bool and str field of a config dataclass."""
    for f in fields(config):
        if f.type in _FIELD_TYPES:
            typed(f.name, getattr(config, f.name), f.type)

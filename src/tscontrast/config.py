"""Engine configuration: JSON file with validated sections, plus defaults.

Precedence is flag > file > default.  Unknown keys, values not of their
default's JSON type and out-of-range values all fail at load, before any work.
"""
from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass

from .distance import METRICS
from .train import TrainConfig

# JSON keys that feed TrainConfig, by section; each key is its field's name
# except "lambda", which is a Python keyword.
_TRAIN_SECTIONS = {
    "assignment": (
        "tau_inst", "tau_temp", "alpha", "pool_m", "inst_kernel", "temp_kernel",
        "kernel_sigma", "neighbor_window_frac", "gaussian_std", "hierarchical_tau",
    ),
    "loss": ("lambda", "hard"),
    "train": ("lr", "batch_size", "iters", "seed", "hidden", "repr_dims", "depth", "mask_mode"),
}
_FIELD_NAMES = {"lambda": "lam"}
# each TrainConfig field's (section, key)
_FIELD_KEYS = {_FIELD_NAMES.get(key, key): (section, key)
               for section, keys in _TRAIN_SECTIONS.items() for key in keys}

_TRAIN_DEFAULTS = asdict(TrainConfig())

# Every (section, key) with its default, which also fixes the value's JSON
# type.  A nested dict is a subsection.  The dataset section holds only the
# keys given: 'path' or 'synthetic'.
DEFAULTS = {
    "dataset": {
        "path": None,
        "synthetic": {
            "n_per_class": 10,
            "length": 64,
            "classes": [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
            "noise_std": 0.0,
            "seed": 0,
        },
    },
    "distance": {"metric": "dtw", "radius": 1, "band": None, "cache": None},
    **{section: {key: _TRAIN_DEFAULTS[_FIELD_NAMES.get(key, key)] for key in keys}
       for section, keys in _TRAIN_SECTIONS.items()},
    "eval": {"probe_k": 1, "anomaly_c": 3.0},
}

# the one type a null-default key takes besides null
NULLABLE_TYPES = {"dataset.path": str, "distance.band": float, "distance.cache": str}

# (lowest, highest) of the keys outside TrainConfig, which checks its own
_RANGES = {("distance", "radius"): (1, None), ("distance", "band"): (0, None),
           ("eval", "probe_k"): (1, None)}

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


@dataclass(frozen=True)
class EngineConfig:
    """A resolved config: every section's keys, and the TrainConfig they build."""
    sections: dict
    train_config: TrainConfig

    def effective(self) -> dict:
        """Fully-populated view: what the engine will actually run with."""
        return copy.deepcopy(self.sections)


def _checked(where: str, value, default):
    """`value` if it has the JSON type of `default`; an int widens to a float."""
    kind = NULLABLE_TYPES[where] if default is None else type(default)
    if value is None and default is None:
        return None
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ValueError(f"{where} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _resolve(where: str, given, defaults: dict, fill: bool = True) -> dict:
    """Check `given` key by key against `defaults`; with `fill`, a missing key
    takes its default (a subsection only appears when given)."""
    if not isinstance(given, dict):
        raise ValueError(f"section '{where}' must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown keys in '{where}': {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            if key in given:
                out[key] = _resolve(f"{where}.{key}", given[key], default)
        elif key in given:
            out[key] = _checked(f"{where}.{key}", given[key], default)
        elif fill:
            out[key] = copy.deepcopy(default)
    return out


def validate(raw: dict) -> EngineConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be an object")
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown keys in 'config': {sorted(unknown)}")
    sections = {section: _resolve(section, raw.get(section, {}), defaults,
                                  fill=section != "dataset")
                for section, defaults in DEFAULTS.items()}

    dataset = sections["dataset"]
    if dataset.get("path") is not None and "synthetic" in dataset:
        raise ValueError("dataset: give either 'path' or 'synthetic', not both")
    if sections["distance"]["metric"] not in METRICS:
        raise ValueError(f"distance.metric must be one of {METRICS}")
    for (section, key), (lo, hi) in _RANGES.items():
        value = sections[section][key]
        if value is not None and not (lo <= value and (hi is None or value <= hi)):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ValueError(f"{section}.{key} must be {bound}, got {value}")
    # Each of TrainConfig's rules reads one field, so building it from every
    # key alone against the defaults finds every bad value and names its key.
    train_fields = {}
    for name, (section, key) in _FIELD_KEYS.items():
        train_fields[name] = sections[section][key]
        try:
            TrainConfig(**{name: train_fields[name]})
        except ValueError as exc:
            raise ValueError(f"{section}.{key}: {exc}") from None
    return EngineConfig(sections=sections, train_config=TrainConfig(**train_fields))


def train_config_from_fields(stored: dict) -> TrainConfig:
    """Build a TrainConfig from its flat fields (a checkpoint's train_config)
    through the same checks as a config file; a missing field takes its default."""
    unknown = sorted(set(stored) - set(_FIELD_KEYS))
    if unknown:
        raise ValueError(f"unknown train_config key(s): {', '.join(unknown)}")
    raw = {}
    for name, value in stored.items():
        section, key = _FIELD_KEYS[name]
        raw.setdefault(section, {})[key] = value
    return validate(raw).train_config


def load(path, overrides: dict | None = None) -> EngineConfig:
    """Read and validate a JSON config.  `overrides` maps (section, key) to a
    value that wins over the file's (flag > file > default)."""
    with open(path) as fh:
        raw = json.load(fh)
    if overrides and isinstance(raw, dict):
        for (section, key), value in overrides.items():
            part = raw.get(section, {})
            if isinstance(part, dict):  # anything else is rejected by validate
                raw[section] = {**part, key: value}
    return validate(raw)

"""Engine configuration: `TrainConfig`, the one declaration of every training
setting with its default and its rule, and the JSON file of validated
sections that builds it: `dataset`, `distance` and `train`, the settings of
`distances`, `pretrain` and `ablate` (`encode` and `evaluate` take no file).

Precedence is flag > file > default.  Unknown keys, values not of their
default's JSON type and out-of-range values all fail at load, before any work.
A TrainConfig has one JSON form, each field under its own name: a config
file's `train` section is what a checkpoint's `train_config` stores.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass

from . import encoder as enc
from .assign import INSTANCE_KERNELS, TEMPORAL_KERNELS
from .distance import METRIC_PARAMS, METRICS, checked_params


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 8
    iters: int = 200
    lam: float = 0.5                # weight of the instance term
    tau_inst: float = 10.0          # sharpness of the instance sigmoid
    tau_temp: float = 1.0           # temporal sharpness, scaled by pool_m^k at level k
    alpha: float = 0.5              # upper bound on distinct-pair instance weights
    inst_kernel: str = "sigmoid"
    temp_kernel: str = "sigmoid"
    pool_m: int = 2                 # max-pool kernel of the hierarchy
    hierarchical_tau: bool = True   # False: tau_temp at every level (ablation)
    hard: bool = False  # conventional contrastive baseline: all soft weights zero
    hidden: int = 32
    repr_dims: int = 16
    depth: int = 4                  # dilated blocks, dilation 2^b at block b
    mask_mode: str = "none"
    seed: int = 0

    def __post_init__(self):
        # each rule reads one field, so validate() can check a key alone
        for name, lowest in (("batch_size", 2), ("iters", 0), ("seed", 0), ("pool_m", 2),
                             ("hidden", 1), ("repr_dims", 1), ("depth", 1)):
            value = getattr(self, name)
            if not value >= lowest:  # NaN fails too
                raise ValueError(f"{name} must be >= {lowest}, got {value}")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        for name in ("tau_inst", "tau_temp"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("lam", "alpha"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name, choices in (("inst_kernel", INSTANCE_KERNELS),
                              ("temp_kernel", TEMPORAL_KERNELS), ("mask_mode", enc.MASK_MODES)):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {value!r}")


# Every (section, key) with its default, which also fixes the value's JSON
# type.  A nested dict is a subsection, present only when given: the dataset
# section holds 'path' (null when absent) and, if given, 'synthetic'.
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
    "distance": {"metric": "dtw", "radius": METRIC_PARAMS["fastdtw"]["radius"],
                 "band": METRIC_PARAMS["dtw"]["band"], "cache": None},
    "train": asdict(TrainConfig()),
}

# the one type a null-default key takes besides null
NULLABLE_TYPES = {"dataset.path": str, "distance.band": float, "distance.cache": str}

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


@dataclass(frozen=True)
class EngineConfig:
    """A resolved config: every section's keys, and the TrainConfig its train
    section builds."""
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
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where} must be a number, got an integer too large "
                             "for one") from None
    if type(value) is not kind:
        raise ValueError(f"{where} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _resolve(where: str, given, defaults: dict) -> dict:
    """Check `given` key by key against `defaults`; a missing key takes its
    default, and a subsection only appears when given."""
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
        else:
            out[key] = copy.deepcopy(default)
    return out


def validate(raw: dict) -> EngineConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be an object")
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown keys in 'config': {sorted(unknown)}")
    sections = {section: _resolve(section, raw.get(section, {}), defaults)
                for section, defaults in DEFAULTS.items()}

    dataset = sections["dataset"]
    if dataset["path"] is not None and "synthetic" in dataset:
        raise ValueError("dataset: give either 'path' or 'synthetic', not both")
    if sections["distance"]["metric"] not in METRICS:
        raise ValueError(f"distance.metric must be one of {METRICS}")
    # each key is checked against the metric that reads it, whatever the metric
    for metric, (key,) in METRIC_PARAMS.items():
        try:
            checked_params(metric, {key: sections["distance"][key]})
        except ValueError as exc:
            raise ValueError(f"distance.{key}: {exc}") from None
    train = sections["train"]
    try:
        train_config = TrainConfig(**train)
    except ValueError:
        # Each of TrainConfig's rules reads one field, so building it from
        # each key alone against the defaults finds the bad value and names its key.
        for name, value in train.items():
            try:
                TrainConfig(**{name: value})
            except ValueError as exc:
                raise ValueError(f"train.{name}: {exc}") from None
        raise
    return EngineConfig(sections=sections, train_config=train_config)


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key it repeats is a ValueError naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load(path, overrides: dict | None = None) -> EngineConfig:
    """Read and validate a JSON config, UTF-8 as RFC 8259 has it.  `overrides`
    maps a `train` key to a value that wins over the file's (flag > file >
    default).  A parse or validation error, a repeated key too, names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_object)
        if overrides and isinstance(raw, dict):
            train = raw.get("train", {})
            if isinstance(train, dict):  # anything else is rejected by validate
                raw["train"] = {**train, **overrides}
        return validate(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

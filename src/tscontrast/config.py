"""Engine configuration: JSON file with validated sections, plus defaults.

Precedence is flag > file > default; unknown keys are rejected so typos fail
loudly instead of silently training with defaults.
"""
from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field

from .distance import METRICS
from .train import TrainConfig

# JSON keys that feed TrainConfig, by section; each key is its field's name
# except "lambda", which is a Python keyword.
_TRAIN_SECTIONS = {
    "assignment": (
        "tau_inst", "tau_temp", "alpha", "pool_m", "inst_kernel", "temp_kernel",
        "kernel_sigma", "neighbor_window_frac", "gaussian_std", "hierarchical_tau",
    ),
    "loss": ("lambda", "temperature", "hard"),
    "train": ("lr", "batch_size", "iters", "seed", "hidden", "repr_dims", "depth", "mask_mode"),
}
_TRAIN_FIELDS = {
    (section, key): "lam" if key == "lambda" else key
    for section, keys in _TRAIN_SECTIONS.items()
    for key in keys
}
# defaults and types come from the dataclass itself
_TRAIN_TYPES = typing.get_type_hints(TrainConfig)

# defaults of the keys that do not reach TrainConfig; a None default is
# passed through as given, any other default also fixes the value's type
_OTHER_DEFAULTS = {
    "distance": {"metric": "dtw", "radius": 1, "band": None, "cache": None},
    "eval": {"probe_k": 1, "anomaly_c": 3.0},
}

_SECTION_KEYS = {
    "dataset": {"path", "synthetic"},
    "distance": set(_OTHER_DEFAULTS["distance"]),
    **{section: set(keys) for section, keys in _TRAIN_SECTIONS.items()},
    "eval": set(_OTHER_DEFAULTS["eval"]),
}

_SYNTH_KEYS = {"n_per_class", "length", "classes", "noise_std", "seed"}


@dataclass
class EngineConfig:
    dataset: dict = field(default_factory=dict)
    distance: dict = field(default_factory=dict)
    assignment: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)

    def to_train_config(self) -> TrainConfig:
        kwargs = {}
        for (section, key), name in _TRAIN_FIELDS.items():
            part = getattr(self, section)
            if key in part:
                kwargs[name] = _TRAIN_TYPES[name](part[key])
        return TrainConfig(**kwargs)

    def effective(self) -> dict:
        """Fully-populated view: what the engine will actually run with."""
        tc = asdict(self.to_train_config())
        out = {"dataset": dict(self.dataset)}
        for section in _SECTION_KEYS:
            if section in _TRAIN_SECTIONS:
                out[section] = {key: tc[_TRAIN_FIELDS[section, key]]
                                for key in _TRAIN_SECTIONS[section]}
            elif section in _OTHER_DEFAULTS:
                part = getattr(self, section)
                out[section] = {
                    key: part.get(key) if default is None else type(default)(part.get(key, default))
                    for key, default in _OTHER_DEFAULTS[section].items()
                }
        return out


def _check_keys(section: str, mapping: dict, allowed: set):
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown keys in '{section}': {sorted(unknown)}")


def validate(raw: dict) -> EngineConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be an object")
    _check_keys("config", raw, set(_SECTION_KEYS))
    for section, allowed in _SECTION_KEYS.items():
        part = raw.get(section, {})
        if not isinstance(part, dict):
            raise ValueError(f"section '{section}' must be an object")
        _check_keys(section, part, allowed)
    dataset = raw.get("dataset", {})
    if "path" in dataset and "synthetic" in dataset:
        raise ValueError("dataset: give either 'path' or 'synthetic', not both")
    if "synthetic" in dataset:
        _check_keys("dataset.synthetic", dataset["synthetic"], _SYNTH_KEYS)
    cfg = EngineConfig(
        dataset=dataset,
        distance=raw.get("distance", {}),
        assignment=raw.get("assignment", {}),
        loss=raw.get("loss", {}),
        train=raw.get("train", {}),
        eval=raw.get("eval", {}),
    )
    distance = cfg.effective()["distance"]
    if distance["metric"] not in METRICS:
        raise ValueError(f"distance.metric must be one of {METRICS}")
    band = distance["band"]
    if band is not None and not (isinstance(band, (int, float)) and band >= 0):
        raise ValueError("distance.band must be a number >= 0")
    # range checks ride on the dataclass validators
    tc = cfg.to_train_config()
    tc.instance_cfg()
    tc.temporal_cfg()
    return cfg


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

import math
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from tscontrast import assign as asg
from tscontrast import config as engine_config
from tscontrast import encoder as enc
from tscontrast import train as tr
from tscontrast.distance import METRICS

DEFAULTS = engine_config.DEFAULTS


def _paths(defaults, prefix=()):
    """(path, default) for every key and subsection of the defaults table."""
    for key, default in defaults.items():
        yield prefix + (key,), default
        if isinstance(default, dict):
            yield from _paths(default, prefix + (key,))


PATHS = list(_paths(DEFAULTS))
LEAVES = [(path, default) for path, default in PATHS if not isinstance(default, dict)]

_TEXT = st.text(max_size=5)
_INTS = st.integers(-3, 3)
_LISTS = st.lists(st.integers(), max_size=2)
_OBJECTS = st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=1)
_FRACTIONAL = st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer())
_ANY_FLOAT = st.floats(allow_nan=False)
# values of a wrong JSON type, by the type the key takes
_WRONG = {
    bool: st.one_of(st.none(), _TEXT, _INTS, _ANY_FLOAT, _LISTS, _OBJECTS),
    int: st.one_of(st.none(), _TEXT, st.booleans(), _FRACTIONAL, _LISTS, _OBJECTS),
    float: st.one_of(st.none(), _TEXT, st.booleans(), _LISTS, _OBJECTS),
    str: st.one_of(st.none(), _INTS, _ANY_FLOAT, st.booleans(), _LISTS, _OBJECTS),
    list: st.one_of(st.none(), _TEXT, _INTS, st.booleans(), _OBJECTS),
    dict: st.one_of(st.none(), _TEXT, _INTS, st.booleans(), _LISTS),
}
_WRONG_FOR_NULLABLE = {
    float: st.one_of(_TEXT, st.booleans(), _LISTS, _OBJECTS),
    str: st.one_of(_INTS, _ANY_FLOAT, st.booleans(), _LISTS, _OBJECTS),
}


def _nest(path, value) -> dict:
    raw = value
    for key in reversed(path):
        raw = {key: raw}
    return raw


@st.composite
def _wrong_typed(draw):
    path, default = draw(st.sampled_from(PATHS))
    if default is None:
        value = draw(_WRONG_FOR_NULLABLE[engine_config.NULLABLE_TYPES[".".join(path)]])
    else:
        value = draw(_WRONG[type(default)])
    return path, value


@settings(max_examples=300, deadline=None)
@given(_wrong_typed())
def test_wrong_json_type_names_the_key(case):
    path, value = case
    with pytest.raises(ValueError, match=re.escape(".".join(path))):
        engine_config.validate(_nest(path, value))


def test_every_null_default_lists_its_type():
    assert {".".join(path) for path, default in LEAVES if default is None} \
        == set(engine_config.NULLABLE_TYPES)


_CHOICES = {
    "distance.metric": METRICS,
    "assignment.inst_kernel": asg.INSTANCE_KERNELS,
    "assignment.temp_kernel": asg.TEMPORAL_KERNELS,
    "train.mask_mode": enc.MASK_MODES,
}
_CLASSES = st.lists(st.fixed_dictionaries(
    {"kind": st.sampled_from(["sine", "square", "sawtooth"]), "freq": st.floats(0.5, 4.0)}),
    min_size=1, max_size=3)


def _valid(name, default):
    """Values in range for every key: numbers never go below their default."""
    if name in _CHOICES:
        return st.sampled_from(_CHOICES[name])
    if name == "distance.band":
        return st.one_of(st.none(), st.integers(0, 8), st.floats(0.0, 8.0))
    if name == "distance.cache":
        return st.one_of(st.none(), _TEXT)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(default, default + 5)
    if isinstance(default, float):
        ints = range(math.ceil(default), math.floor(2 * default) + 1)
        return st.one_of(st.floats(default, 2 * default),
                         *([st.sampled_from(ints)] if ints else []))
    if isinstance(default, list):
        return _CLASSES
    raise AssertionError(f"no valid-value strategy for {name}")


@st.composite
def _valid_config(draw):
    raw = {}
    use_path = draw(st.booleans())
    for path, default in LEAVES:
        name = ".".join(path)
        if path[0] == "dataset" and (path[1] == "path") != use_path:
            continue
        if draw(st.booleans()):
            value = _TEXT if name == "dataset.path" else _valid(name, default)
            node = raw
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = draw(value)
    return raw


def _get(tree, path):
    for key in path:
        if not isinstance(tree, dict) or key not in tree:
            return _MISSING
        tree = tree[key]
    return tree


_MISSING = object()


@settings(max_examples=200, deadline=None)
@given(_valid_config())
def test_valid_config_round_trips(raw):
    eff = engine_config.validate(raw).effective()
    assert engine_config.validate(eff).effective() == eff
    for section, defaults in DEFAULTS.items():
        if section != "dataset":
            assert list(eff[section]) == list(defaults)
    for path, default in LEAVES:
        name, value = ".".join(path), _get(raw, path)
        if value is _MISSING:
            continue
        assert _get(eff, path) == value
        kind = engine_config.NULLABLE_TYPES[name] if default is None else type(default)
        if kind is float and value is not None:
            assert type(_get(eff, path)) is float  # ints are widened


def test_every_train_config_field_is_a_config_key():
    keys = {engine_config._FIELD_NAMES.get(key, key)
            for keys in engine_config._TRAIN_SECTIONS.values() for key in keys}
    assert {f.name for f in fields(tr.TrainConfig)} == keys
    cfg = tr.TrainConfig()
    assert cfg.instance_cfg() == asg.InstanceAssignConfig()
    assert cfg.temporal_cfg() == asg.TemporalAssignConfig()
    assert cfg.encoder_cfg(3) == enc.EncoderConfig(3)


# one out-of-range value for every TrainConfig rule, sub-configs included
_TRAIN_RULE_CASES = [
    ("assignment", "tau_inst", 0), ("assignment", "tau_temp", 0),
    ("assignment", "alpha", 1.5), ("assignment", "pool_m", 1),
    ("assignment", "inst_kernel", "bogus"), ("assignment", "temp_kernel", "bogus"),
    ("assignment", "kernel_sigma", 0), ("assignment", "neighbor_window_frac", 0),
    ("assignment", "gaussian_std", 0), ("train", "hidden", 0),
    ("train", "repr_dims", 0), ("train", "depth", 0),
    ("train", "lr", -0.1), ("loss", "lambda", 1.5),
    ("train", "batch_size", 1), ("train", "iters", -1),
    ("train", "seed", -1), ("train", "mask_mode", "bogus"),
]


@pytest.mark.parametrize("section,key,value", _TRAIN_RULE_CASES)
def test_sub_config_rule_names_the_key(section, key, value):
    with pytest.raises(ValueError, match=re.escape(f"{section}.{key}: ")):
        engine_config.validate({section: {key: value}})


@pytest.mark.parametrize("section,key,value", _TRAIN_RULE_CASES)
def test_train_config_checks_its_own_fields(section, key, value):
    # Python callers get the same rules as a config file
    with pytest.raises(ValueError):
        tr.TrainConfig(**{engine_config._FIELD_NAMES.get(key, key): value})

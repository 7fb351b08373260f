import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscontrast import assign as asg
from tscontrast import config as engine_config
from tscontrast import data as ds
from tscontrast import distance as dist
from tscontrast import encoder as enc
from tscontrast.config import TrainConfig
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
    "train.inst_kernel": asg.INSTANCE_KERNELS,
    "train.temp_kernel": asg.TEMPORAL_KERNELS,
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


# every key a config file may set, flattened; a new setting is a diff here
_SETTABLE_KEYS = {
    "dataset.path", "dataset.synthetic.n_per_class", "dataset.synthetic.length",
    "dataset.synthetic.classes", "dataset.synthetic.noise_std", "dataset.synthetic.seed",
    "distance.metric", "distance.radius", "distance.band", "distance.cache",
    "train.lr", "train.batch_size", "train.iters", "train.lam", "train.tau_inst",
    "train.tau_temp", "train.alpha", "train.inst_kernel", "train.temp_kernel", "train.pool_m",
    "train.hierarchical_tau", "train.hard", "train.hidden", "train.repr_dims", "train.depth",
    "train.mask_mode", "train.seed",
}


def test_every_train_config_field_is_a_config_key():
    # the train section is TrainConfig's one JSON form, as a checkpoint stores it
    assert DEFAULTS["train"] == asdict(TrainConfig())
    assert {".".join(path) for path, _ in LEAVES} == _SETTABLE_KEYS


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_FRACTIONS = st.floats(0.0, 1.0)
# any valid TrainConfig: each field over the whole range its rule allows
_TRAIN_CONFIGS = st.builds(
    TrainConfig, lr=st.floats(0.0, allow_infinity=False), batch_size=st.integers(2),
    iters=st.integers(0), lam=_FRACTIONS, tau_inst=_POSITIVE, tau_temp=_POSITIVE,
    alpha=_FRACTIONS, inst_kernel=st.sampled_from(asg.INSTANCE_KERNELS),
    temp_kernel=st.sampled_from(asg.TEMPORAL_KERNELS), pool_m=st.integers(2),
    hierarchical_tau=st.booleans(), hard=st.booleans(), hidden=st.integers(1),
    repr_dims=st.integers(1), depth=st.integers(1), mask_mode=st.sampled_from(enc.MASK_MODES),
    seed=st.integers(0))


@settings(max_examples=200, deadline=None)
@given(_TRAIN_CONFIGS)
def test_a_train_config_has_one_json_form(cfg):
    # a config file's train section reads back what a checkpoint stores
    stored = json.loads(json.dumps(asdict(cfg)))
    resolved = engine_config.validate({"train": stored})
    assert resolved.train_config == cfg
    assert resolved.effective()["train"] == stored


# one out-of-range value for every TrainConfig rule, and NaN and infinity for
# every number that must be finite.  Each case also names the part of the
# method its field sets: the soft assignment, the loss or the training run.
# Every field sits in `train`; a config file with an `assignment` or `loss`
# section fails as an unknown key.
_TRAIN_RULE_CASES = [
    ("assignment", "tau_inst", 0), ("assignment", "tau_temp", 0),
    ("assignment", "alpha", 1.5), ("assignment", "pool_m", 1),
    ("assignment", "inst_kernel", "bogus"), ("assignment", "temp_kernel", "bogus"),
    ("train", "hidden", 0), ("train", "repr_dims", 0), ("train", "depth", 0),
    ("train", "lr", -0.1), ("loss", "lam", 1.5),
    ("train", "batch_size", 1), ("train", "iters", -1),
    ("train", "seed", -1), ("train", "mask_mode", "bogus"),
    *[("assignment", key, value) for key in ("tau_inst", "tau_temp")
      for value in (math.nan, math.inf)],
    ("train", "lr", math.nan), ("train", "lr", math.inf),
]
# the kernel widths are constants of assign, so TrainConfig has no such field
_RETIRED_CASES = [
    ("assignment", "kernel_sigma", 0), ("assignment", "neighbor_window_frac", 0),
    ("assignment", "gaussian_std", 0),
    *[("assignment", key, value) for key in ("kernel_sigma", "gaussian_std")
      for value in (math.nan, math.inf)],
]


@pytest.mark.parametrize("section,key,value", _TRAIN_RULE_CASES)
def test_sub_config_rule_names_the_key(section, key, value):
    with pytest.raises(ValueError, match=re.escape(f"train.{key}: {key} ")):
        engine_config.validate({"train": {key: value}})
    if section != "train":
        with pytest.raises(ValueError, match=re.escape(f"unknown keys in 'config': ['{section}']")):
            engine_config.validate({section: {key: value}})


@pytest.mark.parametrize("section,key,value", _TRAIN_RULE_CASES + _RETIRED_CASES)
def test_train_config_checks_its_own_fields(section, key, value):
    # Python callers get the same rules as a config file; a retired setting
    # is not a field at all
    error = TypeError if (section, key, value) in _RETIRED_CASES else ValueError
    with pytest.raises(error):
        TrainConfig(**{key: value})


_TWO_SERIES = ds.TimeSeriesSet(values=np.arange(8.0).reshape(2, 4, 1), lengths=[4, 4])


@pytest.mark.parametrize("key,value", [("radius", 0), ("band", -1.0), ("band", math.nan)])
def test_distance_params_fail_as_in_pairwise(key, value):
    # the config and pairwise share one check, and the config names the key
    with pytest.raises(ValueError) as pairwise_error:
        dist.pairwise(_TWO_SERIES, {"radius": "fastdtw", "band": "dtw"}[key], {key: value})
    with pytest.raises(ValueError, match=re.escape(f"distance.{key}: {pairwise_error.value}")):
        engine_config.validate({"distance": {key: value}})


@pytest.mark.parametrize("text,message", [
    ('{"train": {"iters": 2,}}', "Expecting property name enclosed in double quotes"),
    ("[1, 2]", "config root must be an object"),
    ('{"bogus": 1}', "unknown keys in 'config': ['bogus']"),
    # Adam's constants were never config keys
    ('{"train": {"beta1": 0.9}}', "unknown keys in 'train': ['beta1']"),
    ('{"train": {"lam": 1.5}}', "train.lam: lam must be in [0, 1], got 1.5"),
    ('{"loss": {"lambda": 0.5}}', "unknown keys in 'config': ['loss']"),
])
def test_load_names_the_file_in_every_error(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")) as error:
        engine_config.load(path)
    assert str(error.value).count(str(path)) == 1

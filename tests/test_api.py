import ast
from pathlib import Path

import pytest

import tscontrast as tc
from tscontrast import assign as asg
from tscontrast import config
from tscontrast import distance as dist
from tscontrast import encoder as enc
from tscontrast import loss as losses
from tscontrast import train as tr


def test_every_exported_name_resolves_once():
    assert len(tc.__all__) == len(set(tc.__all__))
    for name in tc.__all__:
        assert getattr(tc, name) is not None, name


@pytest.mark.parametrize("name", ["dtw_path", "euclidean", "cosine_dist", "EncoderConfig",
                                  "kl_identity_check", "normalize_assignments", "RETIRED_KEYS",
                                  "_TRAIN_SECTIONS", "_FIELD_NAMES", "_FIELD_KEYS",
                                  "train_config_from_fields"])
def test_deleted_names_stay_gone(name):
    # pairwise is the one entry point of euc and cos, and no caller reads a
    # path; a model's architecture is read from its weights; the loss's
    # scaled-KL form is checked against the oracle's transcription; a config
    # file holds its sections' keys only; and a TrainConfig has one JSON form,
    # so nothing translates between a config file and a checkpoint
    assert not hasattr(tc, name)
    for module in (asg, config, dist, enc, losses, tr):
        assert not hasattr(module, name)


def test_every_exported_name_has_a_caller_beyond_the_tests():
    # a name that only tests and demos use is a helper for them, not library
    package = Path(tc.__file__).parent
    bench = package.parents[1] / "bench"
    assert bench.is_dir()
    sources = [path for path in sorted(package.glob("*.py"))
               if path.name not in ("__init__.py", "oracle.py")]
    sources += [path for path in sorted(bench.glob("*.py")) if not path.name.startswith("test_")]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path in sources for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(set(tc.__all__) - used) == []


def test_only_the_cli_prints():
    # telemetry goes to logging; the command's own output is the CLI's
    package = Path(tc.__file__).parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert calls == []

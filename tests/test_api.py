import ast
from pathlib import Path

import pytest

import tscontrast as tc
from tscontrast import distance as dist


def test_every_exported_name_resolves_once():
    assert len(tc.__all__) == len(set(tc.__all__))
    for name in tc.__all__:
        assert getattr(tc, name) is not None, name


@pytest.mark.parametrize("name", ["dtw_path", "euclidean", "cosine_dist"])
def test_deleted_single_pair_functions_stay_gone(name):
    # pairwise is the one entry point of euc and cos, and no caller reads a path
    assert not hasattr(tc, name)
    assert not hasattr(dist, name)


def test_only_the_cli_prints():
    # telemetry goes to logging; the command's own output is the CLI's
    package = Path(tc.__file__).parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert calls == []

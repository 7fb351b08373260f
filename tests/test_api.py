import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tscontrast as tc
from tscontrast import assign as asg
from tscontrast import autodiff as ad
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


# Autodiff ops no library code calls.  `bench/tracer.AUTODIFF_OPS` patches
# every op it names by string, so these two can go only together with their
# names there, in a change that may edit `bench/` (ROADMAP item 1).
_TRACED_BY_NAME_ONLY = ("masked_log_softmax", "transpose")


def test_every_exported_name_has_a_caller_beyond_the_tests():
    # a name that only tests and demos use is a helper for them, not library:
    # every exported name, and every public function and class of a module
    package = Path(tc.__file__).parent
    bench = package.parents[1] / "bench"
    assert bench.is_dir()
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "oracle.py"]
    sources = [path for path in modules if path.name != "__init__.py"]
    sources += [path for path in sorted(bench.glob("*.py")) if not path.name.startswith("test_")]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path in sources for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    public = {node.name for path in modules for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert all(callable(getattr(ad, name)) for name in _TRACED_BY_NAME_ONLY)
    assert sorted((set(tc.__all__) | public) - used - set(_TRACED_BY_NAME_ONLY)) == []


def test_only_the_cli_prints():
    # telemetry goes to logging; the command's own output is the CLI's
    package = Path(tc.__file__).parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert calls == []


ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: whether scipy.special was loaded before
# tscontrast, after every distance path, and after `build` made a model.
_FOOTPRINT = """
import json, sys
before = "scipy.special" in sys.modules
import tscontrast as tc
from tscontrast import cli
classes = [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}]
tset = tc.znormalize(tc.make_synthetic(2, 16, classes, seed=1))
for metric in tc.METRICS:
    tc.pairwise(tset, metric)
code = cli.main(["distances", "--config", sys.argv[1], "--out", sys.argv[2]])
distances = "scipy.special" in sys.modules
{build}
print(json.dumps({"before": before, "code": code, "distances": distances,
                  "model": "scipy.special" in sys.modules}))
"""


@pytest.mark.parametrize("build", ["tc.init_encoder(tc.TrainConfig(), 1)",
                                   "tc.load_checkpoint(sys.argv[3])"])
def test_scipy_special_loads_with_the_first_model_not_with_the_package(tmp_path, build):
    # GELU's erf is the package's one use of scipy, and its import costs more
    # start-up time and memory than the rest: a distance-only process skips it
    cfg = tr.TrainConfig(hidden=4, repr_dims=2, depth=1)
    tr.save_checkpoint(tr.TrainState.fresh(cfg, 1), cfg, tmp_path / "model.npz")
    (tmp_path / "config.json").write_text(json.dumps({
        "dataset": {"synthetic": {"n_per_class": 2, "length": 16, "seed": 1,
                                  "classes": [{"kind": "sine", "freq": 2.0}]}},
        "distance": {"metric": "dtw"}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _FOOTPRINT.replace("{build}", build),
                          str(tmp_path / "config.json"), str(tmp_path / "dm.bin"),
                          str(tmp_path / "model.npz")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    if seen["before"]:
        pytest.skip("this interpreter loads scipy.special before tscontrast is imported")
    assert seen["code"] == 0
    assert not seen["distances"]
    assert seen["model"]

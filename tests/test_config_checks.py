"""Every config dataclass of the package checks itself when it is built: it
defines ``__post_init__``, which ``dataclasses.replace`` runs again, and no
``validate`` method that callers would have to remember to call (a plain
AST scan, like the unused-import scan).  Every seeded config refuses a
negative seed, which numpy's generators cannot take."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from rrt.baselines import GVConfig
from rrt.data import SynthConfig
from rrt.errors import ConfigError
from rrt.train import TrainConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "rrt"


def config_dataclasses(source: str) -> dict[str, set[str]]:
    """Method names of each dataclass whose name ends in Config."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Config")):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            out[node.name] = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    return out


def test_every_config_checks_itself_when_built():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        found.update(config_dataclasses(path.read_text()))
    assert {"GVConfig", "ModelConfig", "SynthConfig", "TrainConfig"} <= set(found)
    for name, methods in found.items():
        assert "__post_init__" in methods, f"{name} does not check itself when built"
        assert "validate" not in methods, f"{name} defines validate"


@pytest.mark.parametrize("config", [SynthConfig, TrainConfig, GVConfig])
def test_seeded_configs_refuse_a_negative_seed(config):
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        config(seed=-1)
    assert config(seed=0).seed == 0
    assert "seed" in {f.name for f in fields(config)}

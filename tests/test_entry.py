"""The ``rrt`` console command pins BLAS to one thread before numpy loads,
unless the user set a thread count; the package and ``rrt.cli.main`` called
in process leave the environment alone.  Each case runs in a fresh
interpreter, since OpenBLAS reads the variables only when numpy first loads
it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records the three variables as they stand when numpy is first imported,
# then runs `rrt synth --help` through the given entry point.
PROBE = """
import importlib.abc, json, os, sys
VARS = {vars!r}
seen = {{}}

class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in VARS}})
        return None

sys.meta_path.insert(0, Watch())
sys.argv = ["rrt", "synth", "--help"]
{call}
"""

ENTRY_CALL = """
from rrt import entry
try:
    entry.main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(seen))
"""

IN_PROCESS_CALL = """
import rrt
from rrt import cli
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(seen))
"""


def numpy_load_env(call: str, **user_env) -> dict:
    """The BLAS variables at numpy's first import in a fresh interpreter
    whose environment has none of them, apart from user_env."""
    env = {k: v for k, v in os.environ.items() if k not in VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env.update(user_env)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(vars=VARS, call=call)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen, "numpy was never imported"
    return seen


def test_console_command_pins_one_blas_thread_before_numpy_loads():
    assert numpy_load_env(ENTRY_CALL) == {v: "1" for v in VARS}


@pytest.mark.parametrize("var", VARS)
def test_console_command_keeps_a_users_thread_setting(var):
    assert numpy_load_env(ENTRY_CALL, **{var: "2"}) == {v: "2" if v == var else None for v in VARS}


def test_package_and_in_process_main_leave_environment_alone():
    assert numpy_load_env(IN_PROCESS_CALL) == {v: None for v in VARS}

"""Tier-1 once per OpenBLAS core: which tests hold on which BLAS kernels.

    python tests/check_kernels.py [CORE ...]

OpenBLAS builds with DYNAMIC_ARCH pick their kernels at load time, and
OPENBLAS_CORETYPE overrides the pick.  The kernels round differently, and
tier-1 pins bytes (the frozen training digests, the row-block bit tests), so
a test can pass on one core and fail on another.  Each core (SkylakeX and
Haswell by default) runs the whole tier-1 suite in a child process with one
BLAS thread.  Prints, per core, the core the child's OpenBLAS reports
(rrt.cli.blas_core), the passed and failed counts and the failing test ids.
Exits 1 if a child reports a core other than the one it asked for (an
OPENBLAS_CORETYPE the library ignored would test its default kernels
twice), or if the SkylakeX run has a failure or an error, since tier-1's
byte pins were recorded on it.  Each run takes about a minute on two cores.
Stays outside tier-1, like check_gv_reference.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORES = ["SkylakeX", "Haswell"]
REFERENCE = "SkylakeX"


def _env(core: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}


def run_core(core: str) -> tuple[str, int, list[str]]:
    """(the core the child ran on, passed count, failing test ids) of one
    tier-1 run under OPENBLAS_CORETYPE=core."""
    env = _env(core)
    ran = subprocess.run([sys.executable, "-c", "from helpers import blas_core; print(blas_core())"],
                         cwd=ROOT / "tests", env=env, capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors", f"--junitxml={report}"],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        cases = ET.parse(report).getroot().iter("testcase")
        passed, failing = 0, []
        for case in cases:
            outcome = {child.tag for child in case}
            if outcome & {"failure", "error"}:
                failing.append(f"{case.get('classname')}::{case.get('name')}")
            elif "skipped" not in outcome:
                passed += 1
    return ran, passed, failing


def main(argv: list[str]) -> int:
    bad = False
    for core in argv or CORES:
        ran, passed, failing = run_core(core)
        print(f"{core} (OpenBLAS reports {ran}): {passed} passed, {len(failing)} failed", flush=True)
        for test in failing:
            print(f"  {test}", flush=True)
        if ran.lower() != core.lower():
            print(f"  OpenBLAS ran {ran}, not the {core} asked for", flush=True)
            bad = True
        bad |= core == REFERENCE and bool(failing)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import paulidelta

# Fixed examples, no example database and no per-example deadline keep the
# suite reproducible on hosts whose CPU speed varies from run to run.
settings.register_profile("paulidelta", derandomize=True, deadline=None, database=None)
settings.load_profile("paulidelta")


@pytest.fixture
def on_haswell():
    """Run ``python *args`` in a child process on OpenBLAS's Haswell kernel
    and return its stdout.  The rounding of a BLAS product depends on the
    kernel OpenBLAS picks for the host CPU, and a pinned digest reads values
    near 1e-17 and below, so the pins are Haswell's, a kernel that every
    AVX2 CPU runs."""
    src = str(Path(paulidelta.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path}

    def run(*args: str) -> str:
        return subprocess.run(
            [sys.executable, *args], env=env, check=True, capture_output=True, text=True
        ).stdout

    return run

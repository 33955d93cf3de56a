"""Pins the BLAS thread pools to one thread, as the benchmark does.

Multi-worker response maps fork processes that would each start a full
BLAS thread pool; on a small machine the pools contend with each other and
with the workers.  The variables are the benchmark's ``BLAS_THREAD_VARS``,
read from ``perfbench/run.py`` without importing it, and they are set here
because pytest loads this file before any test module imports NumPy.
"""

import ast
import os
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def blas_thread_vars() -> tuple:
    """The literal ``BLAS_THREAD_VARS`` tuple assigned in ``perfbench/run.py``."""
    for node in ast.parse(RUN.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["BLAS_THREAD_VARS"]):
            return ast.literal_eval(node.value)
    raise LookupError(f"no BLAS_THREAD_VARS in {RUN}")


for _var in blas_thread_vars():
    os.environ[_var] = "1"

"""The ``opendicke`` command (also ``python -m opendicke``): the CLI with one-thread BLAS.

Every BLAS thread variable left unset is set to 1 before NumPy loads, so
that a run and each worker a response map forks keep one BLAS thread, and
no eigensolve spins up a pool as wide as the machine.  A value the user
set wins.  Library callers, who import ``opendicke.cli`` or the physics
modules themselves, are left as they are.
"""

import os
import sys

#: the thread-count variables of the BLAS and OpenMP builds NumPy may use
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())

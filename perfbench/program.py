"""How the benchmark finds, pins, imports and warms up the program.

Run as a script, it times one set-up: import numpy and scipy.linalg, then
the package from the checkout's `src/`, then warm up BLAS. It prints the
seconds spent importing the dependencies and the seconds of the whole
set-up; `run.py` starts it several times and scales the second figure by the
first.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable butterfly_coding package."""


def pin_blas():
    """Pin BLAS to one thread for this process and the ones it starts.

    Must run before numpy is imported; the machine default (one thread per
    core) makes timings depend on what else the box is running.
    """
    for var in _BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def pin_cpu() -> int:
    """Keep this process and the ones it starts on one CPU, so that timings
    and the reference kernel they are scaled by run on the same core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program():
    """Import butterfly_coding from this checkout's source tree."""
    if not (SRC / "butterfly_coding" / "__init__.py").is_file():
        raise ProgramMissing(f"no butterfly_coding package under {SRC}")
    sys.path.insert(0, str(SRC))
    import butterfly_coding

    if Path(butterfly_coding.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(
            f"imported butterfly_coding from {butterfly_coding.__file__}, "
            f"not from {SRC}")
    return butterfly_coding


def warm_blas():
    """Run each LAPACK routine the program uses once, on a small matrix."""
    import numpy as np
    from scipy.linalg import null_space

    rng = np.random.default_rng(0)
    m = rng.normal(size=(64, 64))
    g = m @ m.T + 64.0 * np.eye(64)
    np.linalg.svd(m)
    np.linalg.eigh(g)
    np.linalg.eigvalsh(g)
    np.linalg.cholesky(g)
    np.linalg.lstsq(m, g[:, :4], rcond=None)
    np.linalg.pinv(g, hermitian=True)
    null_space(m[:32])


if __name__ == "__main__":
    pin_blas()
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    t1 = time.perf_counter()
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    warm_blas()
    print(repr(t1 - t0), repr(time.perf_counter() - t0))

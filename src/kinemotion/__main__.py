"""``python -m kinemotion`` and the ``kinemotion`` console script.

Inference runs its independent units on a small thread pool
(``classifier._run_units``), one per CPU; a multi-threaded BLAS under it
contends with the pool for the same cores.  So, before numpy loads, the
command line runs BLAS on one thread unless the environment already
names a count.  Importing the library (``kinemotion.cli`` included)
changes no environment variable.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (numpy loads here, after the pinning)

if __name__ == "__main__":
    main()

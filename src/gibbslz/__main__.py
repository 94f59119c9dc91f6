"""Command line entry of `python -m gibbslz` and the `gibbslz` script.

The package's BLAS calls are small dot and matrix-vector products, so the
command line runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is
already set: idle pool threads spin, about 0.15 s of CPU per process on
a 2-core machine.  The variable is read when numpy loads, so it is set
before expcli is imported, and forked workers inherit it.  Importing the
library leaves the caller's thread policy alone.
"""

import os
import sys


def main(argv: list[str] | None = None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .expcli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())

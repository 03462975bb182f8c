"""The `twospin` command: `python -m twospin` and the installed script both run main(), the only launchers.

main() pins NumPy's BLAS to one thread, then exits with the status of `twospin.cli.main`. Every
operator here is a 4x4 matrix, which OpenBLAS never splits across threads, yet its
idle worker pool spins for about 0.13 s of CPU in each process that loads NumPy.
The setting must precede the first NumPy import, so it lives here: importing the
package or `twospin.cli` as a library changes no process-wide setting. An
OPENBLAS_NUM_THREADS the caller set wins.
"""

import os
import sys


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    sys.exit(cli.main())


if __name__ == "__main__":
    main()

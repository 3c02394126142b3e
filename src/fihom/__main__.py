"""`python -m fihom ...` runs the `fihom` command line (see `fihom.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

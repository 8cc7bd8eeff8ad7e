"""`python -m ppsn`: the `ppsn` command line, with its exit code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

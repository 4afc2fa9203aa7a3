"""`python -m contab`: the same command line as the `contab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

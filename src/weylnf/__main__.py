"""``python -m weylnf``: the command line interface of ``weylnf.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

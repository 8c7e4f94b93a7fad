"""`python -m denserank`: the same entry point as the `denserank` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

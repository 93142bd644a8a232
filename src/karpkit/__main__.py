"""`python -m karpkit ...` runs the command-line frontend, as `karpkit ...` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

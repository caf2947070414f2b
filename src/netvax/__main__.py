"""Run the netvax command line as ``python -m netvax``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""`python -m butterfly_coding`: the butterfly-coding command line."""

import sys

from .bench import main

if __name__ == "__main__":
    sys.exit(main())

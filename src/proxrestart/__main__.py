"""``python -m proxrestart``: the same commands as the ``proxrestart`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m heavytail_lmc``: the command-line interface of :mod:`.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

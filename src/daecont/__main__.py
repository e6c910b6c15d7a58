"""``python -m daecont``: the ``daecont`` command line (see :mod:`daecont.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

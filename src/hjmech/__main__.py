"""``python -m hjmech``: the command-line interface of hjmech.cli."""

import sys

from .cli import main

sys.exit(main())

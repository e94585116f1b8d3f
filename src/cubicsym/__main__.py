"""``python -m cubicsym``: the command line of ``cubicsym.cli``."""

import sys

from .cli import main

sys.exit(main())

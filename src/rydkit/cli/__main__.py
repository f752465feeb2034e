"""``python -m rydkit.cli``: the same entry point as the ``rydkit`` script."""

import sys

from . import main

sys.exit(main())

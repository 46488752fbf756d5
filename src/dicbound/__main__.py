"""``python -m dicbound``: the command-line interface (see ``cli``)."""

import sys

from .cli import main

sys.exit(main())

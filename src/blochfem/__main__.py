"""``python -m blochfem``: the command line of :mod:`blochfem.cli`."""

import sys

from .cli import main

sys.exit(main())

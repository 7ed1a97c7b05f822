"""`python -m fedgc`: the fedgc command line, runnable from a checkout."""

import sys

from .cli import main

sys.exit(main())

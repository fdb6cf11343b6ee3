"""`python -m dilatox`: cli.run(), the entry point of the console script too."""

import sys

from .cli import run

sys.exit(run())

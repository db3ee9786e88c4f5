"""`python -m p1h ...` runs the command-line interface (see p1h.cli)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

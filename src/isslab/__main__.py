"""``python -m isslab``: the command line of :mod:`isslab.harness`."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())

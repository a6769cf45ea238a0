"""``python -m stablerank``: the same command line as the ``stablerank`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

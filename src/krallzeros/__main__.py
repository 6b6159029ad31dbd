"""Command-line entry point: python -m krallzeros <subcommand> ..."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

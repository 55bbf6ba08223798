"""Run the command-line solver as ``python -m terrainguard``."""

from .cli import main

if __name__ == "__main__":
    main()

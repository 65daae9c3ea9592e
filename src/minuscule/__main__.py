"""``python -m minuscule``: the same command line as ``minuscule``."""
from .cli import main

if __name__ == "__main__":
    main()

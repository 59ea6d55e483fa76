"""``python -m kinemotion``: the ``kinemotion`` command line."""

from .cli import main

if __name__ == "__main__":
    main()

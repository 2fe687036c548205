"""``python -m cayleylab``: the cayley-lab command line."""

from .cli import main

if __name__ == "__main__":
    main()

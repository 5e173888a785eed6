"""``python -m sslci``: the command-line interface of :mod:`sslci.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()

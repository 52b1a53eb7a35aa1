"""``python -m splitpack``: the same command line as the ``splitpack`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()

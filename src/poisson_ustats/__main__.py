"""``python -m poisson_ustats``: the command line front end (cli.entrypoint)."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()

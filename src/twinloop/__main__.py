"""``python -m twinloop``: the same commands as the ``twinloop`` script."""

from .cli import entrypoint

entrypoint()

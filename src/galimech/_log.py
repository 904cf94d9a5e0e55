"""Log lines on stderr at the level GALIMECH_LOG names.

GALIMECH_LOG is read at every line, and ``logging`` is imported only for a
line the level lets through, so at the default ``error``, which no line of
a correct run reaches, it is never loaded.  The first line let through
puts one handler on the ``galimech`` logger; each line goes to the
``sys.stderr`` of the moment, as ``LEVEL logger.name: message``.
"""

from __future__ import annotations

import os
import sys

# logging's numeric levels, by their GALIMECH_LOG names
DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40
LEVELS = {"error": ERROR, "warn": WARNING, "info": INFO, "debug": DEBUG}

_handler = None


def level_name() -> str:
    """GALIMECH_LOG stripped and lowercased, "error" when it is unset."""
    return os.environ.get("GALIMECH_LOG", "error").strip().lower()


def log(name: str, level: int, msg: str, *args, exc_info=None) -> None:
    """``logging.getLogger(name).log(level, msg, *args)`` when GALIMECH_LOG
    lets level through (a value not in LEVELS means error); below it,
    nothing is imported or formatted."""
    global _handler
    if level < LEVELS.get(level_name(), ERROR):
        return
    import logging
    if _handler is None:
        _handler = logging.StreamHandler()
        _handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        top = logging.getLogger("galimech")
        top.addHandler(_handler)
        top.setLevel(DEBUG)  # GALIMECH_LOG, tested above, is the only filter
        top.propagate = False
    _handler.stream = sys.stderr
    logging.getLogger(name).log(level, msg, *args, exc_info=exc_info)

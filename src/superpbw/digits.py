"""What reads as an integer, decided once: ASCII digits, with a sign where a
reader allows one.  Python's own readers accept more -- `int()` takes any
Unicode digit and underscores between digits, `str.isdecimal` and a regex
`\\d` any Unicode digit -- so every reader of the package asks here instead.
This module imports nothing from the package, so each module can use it."""

import re

DIGIT = "[0-9]"                     # the digit class, for a reader's own pattern
_INT_RE = re.compile("[+-]?%s+" % DIGIT)


def is_digits(text):
    """Whether text is one or more ASCII digits and nothing else."""
    return text.isascii() and text.isdigit()


def is_int(text):
    """Whether text is an integer: ASCII digits after an optional sign."""
    return _INT_RE.fullmatch(text) is not None


def to_int(text):
    """The int that text spells, read as `int()` reads it but from ASCII
    digits only; the same ValueError otherwise."""
    if not is_int(text.strip()):
        raise ValueError("invalid literal for int() with base 10: %r" % text)
    return int(text)

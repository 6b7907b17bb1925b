"""Shared failure type for tripped internal consistency checks."""


class InternalCheckError(RuntimeError):
    """A computed result violated a structural law the code relies on."""


class SizeError(ValueError):
    """A size argument outside the range that a function or verb takes."""

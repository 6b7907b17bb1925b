"""Shared failure types: bad input, and tripped internal consistency checks."""


class InternalCheckError(RuntimeError):
    """A computed result violated a structural law the code relies on."""


class InputError(ValueError):
    """Invalid input: the CLI reports each subclass with exit code 1."""


class SizeError(InputError):
    """A size argument outside the range that a function or verb takes."""

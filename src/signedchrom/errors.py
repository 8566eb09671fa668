"""Exceptions shared by all signedchrom modules.

`SignedChromError` reports an input error; its message names the check that
fired.  `BudgetExceededError` marks a refusal by a work bound.  Every command
of the CLI exits 2 on either, with the message on stderr.
"""


class SignedChromError(Exception):
    """Base class for all errors raised by this package."""


class BudgetExceededError(SignedChromError):
    """The requested computation exceeds the configured budget."""

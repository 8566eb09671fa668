"""Exceptions shared by all signedchrom modules.

`SignedChromError` reports an input error; its message names the check that
fired.  `BudgetExceededError` marks a refusal by a work bound, which
`search_cochromatic` reports as status "budget_exceeded".  The CLI exits 2
on either.
"""


class SignedChromError(Exception):
    """Base class for all errors raised by this package."""


class BudgetExceededError(SignedChromError):
    """The requested computation exceeds the configured budget."""

"""Exception types shared across the package."""


class InfeasibleParametersError(ValueError):
    """No parameter assignment satisfies the requested constraints."""


class CorruptCodewordError(Exception):
    """The input cannot be a codeword of the declared code."""


class BudgetExceededError(Exception):
    """An enumeration of all q**n words would exceed the work budget.

    Carries q, n and the budget so callers can report how far over budget
    the request was.  ``cost`` (q**n) is built only when read: far past the
    budget it can run to millions of digits.
    """

    def __init__(self, message: str, q: int, n: int, budget: int):
        super().__init__(message)
        self.q, self.n, self.budget = q, n, budget

    @property
    def cost(self) -> int:
        return self.q**self.n

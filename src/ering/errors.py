"""Exception types shared across the package."""


class InputFormatError(ValueError):
    """A data file could not be parsed (bad header, bad row, wrong field count)."""


class ConvergenceError(RuntimeError):
    """An iterative optimizer failed to converge within its restart budget."""


class PoissonLimitError(ValueError):
    """A mean count above numpy's Poisson limit, or mean counts that overflow a float;
    ``args`` are the finding and the input to lower."""

    def __str__(self) -> str:
        return "{}; lower {}".format(*self.args)

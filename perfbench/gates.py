"""The failure a correctness gate raises; counted apart from errors."""


class GateFailure(Exception):
    """A program output failed a correctness gate."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)

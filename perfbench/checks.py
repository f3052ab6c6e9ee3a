"""Tally of the benchmark's operations: exact output checks and robustness
probes, one operation each.

An operation fails when its value is wrong or when it raises.  A probe may
carry the outcome it had when the benchmark was defined; a probe that fails
with exactly that outcome is a *known* failure.  It still counts as failed,
but it is not a new failure.
"""

from __future__ import annotations

from typing import Callable

MAX_MESSAGES = 20


class Checks:
    """Tallies operations; keeps the first few distinct failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.messages: list[str] = []

    def _note(self, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES and message not in self.messages:
            self.messages.append(message)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self._note(message)

    def raised(self, what: str, exc: Exception) -> None:
        """One operation that raised instead of giving a value."""
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def guard(self, what: str, call: Callable[[], None]) -> None:
        """Run a group of checks; if it raises, that is one more failed
        operation, and the checks already made still count."""
        try:
            call()
        except Exception as exc:  # a malformed output fails its checks, not the run
            self.raised(what, exc)

    def equal(self, what: str, got: object, expected: Callable[[], object]) -> None:
        """One exact check of ``got`` against ``expected()``."""
        try:
            want = expected()
        except Exception as exc:  # a raising reference is a failed operation
            self.raised(what, exc)
            return
        self.attempted += 1
        if got != want:
            self._fail(f"{what}: got {got!r}, want {want!r}")

    def probe(self, what: str, call: Callable[[], str | None], known: str | None = None) -> None:
        """One probe: ``call`` returns None when the behaviour is right, or a
        short outcome string; an exception's type name is its outcome.
        ``known`` is the outcome recorded when the benchmark was defined."""
        self.attempted += 1
        try:
            outcome = call()
        except Exception as exc:  # a probe must never stop the run
            outcome = type(exc).__name__
        if outcome is None:
            return
        if outcome == known:
            self.known += 1
            outcome += " (known when the benchmark was defined)"
        self._fail(f"probe {what}: {outcome}")

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.known += other["known"]
        for message in other["messages"]:
            self._note(message)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "known": self.known,
            "messages": self.messages,
        }

"""Named checks, recorded once: the suites, the polytope certificate and the
cubic realization all report through a `Ledger`.

Names keep the order of their first record.  A name passes until a failed
record, whose detail it keeps; the first failed record of all, in run order,
is the counterexample.
"""

from types import MappingProxyType


class Ledger:
    def __init__(self):
        self._checks = {}  # name -> (ok, detail)
        self._first_failure = None

    def record(self, name: str, ok, detail="") -> None:
        ok, detail = bool(ok), str(detail)
        if name not in self._checks or (not ok and self._checks[name][0]):
            self._checks[name] = (ok, detail)
        if not ok and self._first_failure is None:
            self._first_failure = f"{name}: {detail}"

    @property
    def checks(self) -> list:
        """``(name, ok, detail)`` per name, in order of first record."""
        return [(name, ok, detail) for name, (ok, detail) in self._checks.items()]

    def verdicts(self) -> MappingProxyType:
        """A read-only map from each name to its verdict, in order of first record."""
        return MappingProxyType({name: ok for name, (ok, _) in self._checks.items()})

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self._checks.values())

    def first_failure(self) -> "str | None":
        """``"name: detail"`` of the first failed record, or None."""
        return self._first_failure

"""Teams of Boolean assignments and their text formats.

A team is stored as an ordered variable domain plus a canonically
sorted tuple of rows, each row a tuple of bits aligned with the domain.
Sorting the rows once at construction makes iteration order stable
across runs.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import TeamFormatError, UnknownVariableError
from .records import Record, _set

__all__ = ["Team", "parse_team", "render_team", "team_from_object", "team_to_object"]

Row = tuple[int, ...]


def _array(value, kind: type) -> list:
    """``value`` if it is a list of items of exactly type ``kind``, as JSON
    arrays load: neither a string's characters nor ``True`` for 1."""
    if type(value) is list and all(type(v) is kind for v in value):
        return value
    raise TypeError(f"{value!r} is not an array of {kind.__name__} items")


class Team(Record):
    """A set of Boolean assignments over a shared variable domain."""

    def __init__(self, domain: tuple[str, ...], rows: tuple[Row, ...]):
        _set(self, "domain", domain)
        _set(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        if len(set(self.domain)) != len(self.domain):
            raise TeamFormatError(f"duplicate variable name in {self.domain}")
        try:  # all rows at once; the row loop below names a bad one
            valid = (set(map(len, self.rows)) <= {len(self.domain)}
                     and set().union(*self.rows) <= {0, 1}
                     and len(set(self.rows)) == len(self.rows))
        except TypeError:
            valid = False
        seen = set()
        for row in () if valid else self.rows:
            if len(row) != len(self.domain):
                raise TeamFormatError(
                    f"row {row} has arity {len(row)}, domain has {len(self.domain)}"
                )
            if any(b not in (0, 1) for b in row):
                raise TeamFormatError(f"row {row} contains a non-bit value")
            if row in seen:
                raise TeamFormatError(f"duplicate row {row}; a team is a set")
            seen.add(row)
        _set(self, "rows", tuple(sorted(self.rows)))

    def __len__(self) -> int:
        return len(self.rows)

    def index(self, var: str) -> int:
        try:
            return self.domain.index(var)
        except ValueError:
            raise UnknownVariableError(
                f"variable {var!r} not in team domain {self.domain}"
            ) from None


def parse_team(text: str) -> Team:
    """Parse the line-oriented team format.

    Line 1 holds whitespace-separated variable names; every further
    nonempty line is a bitstring of matching length.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise TeamFormatError("team text is empty; expected a header line")
    domain = tuple(lines[0].split())
    rows = []
    for ln in lines[1:]:
        if len(ln) != len(domain):
            raise TeamFormatError(
                f"row {ln!r} has length {len(ln)}, expected {len(domain)}"
            )
        if not set(ln) <= {"0", "1"}:
            raise TeamFormatError(f"row {ln!r} contains a non-bit value")
        rows.append(tuple(int(c) for c in ln))
    return Team(domain, tuple(rows))


def render_team(team: Team) -> str:
    """Inverse of :func:`parse_team` up to row order."""
    lines = [" ".join(team.domain)]
    for row in team.rows:
        lines.append("".join(str(b) for b in row))
    return "\n".join(lines) + "\n"


def team_from_object(obj: Mapping) -> Team:
    """Build a team from the structured ``{"vars": ..., "rows": ...}`` form."""
    try:
        domain = tuple(_array(obj["vars"], str))
        rows = [tuple(_array(row, int)) for row in _array(obj["rows"], list)]
    except (KeyError, TypeError) as exc:
        raise TeamFormatError(f"bad structured team object: {exc}") from exc
    return Team(domain, rows)


def team_to_object(team: Team) -> dict:
    return {"vars": list(team.domain), "rows": [list(r) for r in team.rows]}

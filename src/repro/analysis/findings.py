"""The finding record shared by every analysis rule."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One determinism hazard at one source location.

    Field order matters: dataclass ordering gives the deterministic
    report order (path, then position, then rule).
    """

    path: str  #: repo-relative posix path of the file
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    rule: str  #: rule code, e.g. ``"RS001"``
    message: str  #: human-readable description of the hazard
    context: str  #: enclosing scope qualname (``"<module>"`` at top level)
    snippet: str  #: stripped source line the finding points at

    def as_dict(self) -> dict[str, object]:
        """The finding as a plain JSON-ready dict (stable key order)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        """One-line text form: ``path:line:col: RULE message [in context]``."""
        where = f" [in {self.context}]" if self.context != "<module>" else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{where}"

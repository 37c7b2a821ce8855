"""AST linter engine with a pluggable checker registry (``repro check``).

The engine is deliberately small: it resolves paths to Python files, parses
each file once, and hands the tree to every selected checker.  Checkers are
classes registered with :func:`register_checker`; each declares a ``name``
(the id printed in findings and accepted by ``--select``) and a one-line
``description``, and implements ``check(tree, path) -> Iterable[Finding]``.

The built-in checkers (:mod:`repro.analysis.checkers`) encode the SPMD
discipline the simulated runtime relies on -- see DESIGN.md "Correctness
tooling" for the invariant catalogue and their paper provenance.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .findings import Finding

__all__ = [
    "CheckerBase",
    "CHECKERS",
    "register_checker",
    "get_checkers",
    "available_profiles",
    "iter_python_files",
    "check_file",
    "run_checks",
    "load_baseline",
    "apply_baseline",
    "list_suppressions",
    "Suppression",
]


class CheckerBase:
    """Base class for AST checkers.

    Subclasses set ``name`` / ``description`` and implement :meth:`check`.
    ``finding`` is a convenience that stamps the checker id, severity and
    the node's location onto the message.  ``profile`` groups checkers for
    ``repro check --profile`` (``spmd`` = superstep-protocol rules,
    ``concurrency`` = lock-discipline rules); ``severity`` is ``"error"``
    for definite bugs and ``"warning"`` for judgement calls worth a look.
    """

    name: str = ""
    description: str = ""
    profile: str = "spmd"
    severity: str = "error"

    def check(self, tree: ast.Module, path: str) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            checker=self.name,
            message=message,
            severity=self.severity,
        )


#: Registry of available checkers, keyed by checker ``name``.
CHECKERS: dict[str, type[CheckerBase]] = {}


def register_checker(cls: type[CheckerBase]) -> type[CheckerBase]:
    """Class decorator adding a checker to :data:`CHECKERS`.

    Third-party checkers can register themselves the same way the built-ins
    do; ``repro check`` picks them up as long as the defining module is
    imported first.
    """
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} must define a non-empty name")
    if cls.name in CHECKERS and CHECKERS[cls.name] is not cls:
        raise ValueError(f"checker name {cls.name!r} is already registered")
    CHECKERS[cls.name] = cls
    return cls


def _registry() -> dict[str, type[CheckerBase]]:
    """:data:`CHECKERS`, with the built-in checkers registered."""
    from . import checkers, locks  # noqa: F401  (importing registers them)

    return CHECKERS


def available_profiles() -> list[str]:
    """Profiles declared by registered checkers, plus the ``all`` union."""
    return sorted({cls.profile for cls in _registry().values()} | {"all"})


def get_checkers(
    select: Sequence[str] | None = None, *, profile: str | None = None
) -> list[CheckerBase]:
    """Instantiate the selected checkers.

    ``select`` (explicit checker names) wins over ``profile``; with neither,
    every registered checker runs.  ``profile="all"`` is the union.
    """
    registry = _registry()
    if select is not None:
        unknown = [n for n in select if n not in registry]
        if unknown:
            raise ValueError(
                f"unknown checker(s) {unknown}; available: {sorted(registry)}"
            )
        names = list(select)
    elif profile is not None and profile != "all":
        profiles = available_profiles()
        if profile not in profiles:
            raise ValueError(
                f"unknown profile {profile!r}; available: {profiles}"
            )
        names = sorted(n for n, cls in registry.items() if cls.profile == profile)
    else:
        names = sorted(registry)
    return [registry[n]() for n in names]


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``*.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            yield path
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")


#: Trailing-comment suppression: a trailing ``lint: allow(checker-a,
#: checker-b)`` comment on the offending line silences those checkers for
#: that line only.  Checkers work on the AST and never see comments, so
#: the engine applies this filter.
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([\w\s,-]+)\)")


def _allowed_lines(source: str) -> dict[int, set[str]]:
    allowed: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            allowed[lineno] = {
                name.strip() for name in match.group(1).split(",") if name.strip()
            }
    return allowed


def check_file(
    path: str | Path, checkers: Sequence[CheckerBase] | None = None
) -> list[Finding]:
    """Parse one file and run the checkers over it.

    A file that does not parse yields a single ``parse-error`` finding rather
    than aborting the whole run.  Findings on lines carrying a matching
    ``# lint: allow(<checker>)`` comment are dropped.
    """
    path = Path(path)
    if checkers is None:
        checkers = get_checkers()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=str(path),
                line=exc.lineno or 0,
                col=(exc.offset or 0),
                checker="parse-error",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    allowed = _allowed_lines(source)
    findings: set[Finding] = set()
    for checker in checkers:
        findings.update(
            f
            for f in checker.check(tree, str(path))
            if f.checker not in allowed.get(f.line, ())
        )
    # Deduplicate: nested loops can surface the same violation node twice.
    return sorted(findings)


def run_checks(
    paths: Iterable[str | Path],
    *,
    select: Sequence[str] | None = None,
    profile: str | None = None,
) -> list[Finding]:
    """Run the selected checkers over every Python file under ``paths``."""
    checkers = get_checkers(select, profile=profile)
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(check_file(path, checkers))
    return sorted(findings)


# --------------------------------------------------------------------- #
# Findings baseline (``--baseline`` / ``--write-baseline``)
# --------------------------------------------------------------------- #


def load_baseline(path: str | Path) -> list[dict]:
    """Load a baseline file written by ``repro check --write-baseline``."""
    import json

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = data.get("findings", data) if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path}: expected a findings list")
    return entries


def apply_baseline(
    findings: Sequence[Finding], baseline: Sequence[dict]
) -> tuple[list[Finding], list[dict]]:
    """Subtract baselined findings; return ``(new_findings, stale_entries)``.

    Matching is a multiset over ``(path, checker, message)`` -- line numbers
    deliberately don't participate, so unrelated edits that shift a known
    finding up or down do not break CI.  Paths compare by suffix in either
    direction, tolerating absolute-vs-relative invocation differences.
    ``stale_entries`` are baseline rows that matched nothing: the debt was
    paid and the row should be deleted (``--write-baseline`` regenerates).
    """
    remaining = list(findings)
    stale: list[dict] = []
    for entry in baseline:
        epath = str(entry.get("path", ""))
        echecker = entry.get("checker")
        emessage = entry.get("message")
        matched = None
        for f in remaining:
            if (
                f.checker == echecker
                and f.message == emessage
                and (f.path.endswith(epath) or epath.endswith(f.path))
            ):
                matched = f
                break
        if matched is None:
            stale.append(entry)
        else:
            remaining.remove(matched)
    return remaining, stale


# --------------------------------------------------------------------- #
# Suppression audit (``--list-suppressions``)
# --------------------------------------------------------------------- #


class Suppression:
    """One ``# lint: allow(...)`` site found by :func:`list_suppressions`."""

    __slots__ = ("path", "line", "checkers", "source", "unknown")

    def __init__(
        self, path: str, line: int, checkers: tuple[str, ...], source: str
    ) -> None:
        self.path = path
        self.line = line
        self.checkers = checkers
        self.source = source
        self.unknown = tuple(c for c in checkers if c not in _registry())

    def format(self) -> str:
        names = ", ".join(self.checkers)
        note = ""
        if self.unknown:
            note = f"  [WARNING: unknown checker(s): {', '.join(self.unknown)}]"
        return f"{self.path}:{self.line}: allow({names}){note}  | {self.source.strip()}"


def list_suppressions(paths: Iterable[str | Path]) -> list[Suppression]:
    """Find every ``# lint: allow(...)`` comment under ``paths``.

    Suppressions rot: the code they excused gets rewritten and the comment
    lingers, silently masking future regressions.  This audit gives them a
    review surface; entries naming unregistered checkers are flagged.
    """
    out: list[Suppression] = []
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _ALLOW_RE.search(line)
            if match:
                names = tuple(
                    n.strip() for n in match.group(1).split(",") if n.strip()
                )
                out.append(Suppression(str(path), lineno, names, line))
    return out

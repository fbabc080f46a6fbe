"""The linting framework: findings, rules, suppressions, baseline, runner.

The checker is a set of AST visitors (one :class:`Rule` per invariant,
see :mod:`repro.devtools.lint.rules`) driven over the repository's Python
files.  Three escape hatches keep it honest rather than annoying:

* **per-line suppression** — ``# repro-lint: disable=<rule>[,<rule>...]
  -- <justification>``.  A trailing comment suppresses its own line; a
  comment standing alone on a line suppresses the next line.  The
  justification after ``--`` is *mandatory*: a suppression without one is
  itself reported (``invalid-suppression``) and does not suppress.
* **baseline** — a committed JSON file of grandfathered findings
  (``lint-baseline.json``).  Baselined findings are reported separately
  and do not fail the run; they are matched by ``(rule, path, source
  line text)`` so pure line-number drift does not invalidate the
  baseline, while touching the offending line does.
* **rule scoping** — each rule declares the path patterns it applies to
  (the budget rule only patrols the chase/adornment/witness modules, the
  encapsulation rule exempts the matching backends' documented borrowing
  contract, and so on).

Exit-code contract of :func:`run_lint` consumers (the ``repro lint``
CLI): 0 — no unsuppressed, unbaselined finding; 1 — findings; 2 — usage
or internal trouble.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import json
import pathlib
import re
import tokenize
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator

#: Default baseline file name, resolved against the lint root.
BASELINE_NAME = "lint-baseline.json"

#: Baseline schema version (bump on incompatible format changes).
BASELINE_VERSION = 1

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist", ".eggs"}

#: Framework-owned finding kinds (not in the rule registry, not
#: suppressible by themselves).
PARSE_ERROR = "parse-error"
INVALID_SUPPRESSION = "invalid-suppression"

_SUPPRESS_RE = re.compile(
    r"repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str       # posix path relative to the lint root
    line: int       # 1-based
    col: int        # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class ModuleSource:
    """One parsed file handed to every applicable rule."""

    def __init__(self, root: pathlib.Path, abspath: pathlib.Path) -> None:
        self.root = root
        self.abspath = abspath
        self.path = abspath.relative_to(root).as_posix()
        self.text = abspath.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_failure: Finding | None = None
        try:
            self.tree = ast.parse(self.text)
        except SyntaxError as exc:
            self.parse_failure = Finding(
                path=self.path,
                line=exc.lineno or 1,
                col=exc.offset or 1,
                rule=PARSE_ERROR,
                message=f"file does not parse: {exc.msg}",
            )
        # line → set of rule names suppressed there
        self.suppressions: dict[int, set[str]] = {}
        #: suppressions actually consulted (for future use; not reported)
        self.invalid_suppressions: list[Finding] = []
        if self.parse_failure is None:
            self._parse_suppressions()

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def _parse_suppressions(self) -> None:
        """Collect ``# repro-lint: disable=...`` comments via tokenize.

        Tokenize (not a regex over raw lines) so suppression markers
        *inside string literals* — this framework's own test fixtures —
        are never mistaken for live suppressions.
        """
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except tokenize.TokenError:  # unterminated strings etc.
            return
        code_lines = {
            line
            for tok in tokens
            if tok.type
            not in (
                tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
            )
            for line in range(tok.start[0], tok.end[0] + 1)
        }
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            line = tok.start[0]
            rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
            why = (match.group("why") or "").strip()
            if not why:
                self.invalid_suppressions.append(
                    Finding(
                        path=self.path,
                        line=line,
                        col=tok.start[1] + 1,
                        rule=INVALID_SUPPRESSION,
                        message=(
                            "suppression without a justification — write "
                            "'# repro-lint: disable=<rule> -- <why>'"
                        ),
                    )
                )
                continue
            # A trailing comment covers its own line; a comment standing
            # alone covers the next line.
            target = line if line in code_lines else line + 1
            self.suppressions.setdefault(target, set()).update(rules)


class Rule:
    """Base class: one machine-checked invariant.

    Subclasses set the class attributes and implement :meth:`check`.
    ``include``/``exclude`` are fnmatch patterns over the posix path
    relative to the lint root (empty ``include`` means every file).
    """

    name: ClassVar[str] = ""
    section: ClassVar[str] = ""         # the DESIGN.md section it guards
    summary: ClassVar[str] = ""
    include: ClassVar[tuple[str, ...]] = ()
    exclude: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, path: str) -> bool:
        if self.include and not any(fnmatch.fnmatch(path, p) for p in self.include):
            return False
        return not any(fnmatch.fnmatch(path, p) for p in self.exclude)

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no rule name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, import side effects done."""
    from . import rules as _rules  # noqa: F401  (registration side effect)

    return [cls() for _, cls in sorted(_REGISTRY.items())]


# -- baseline ------------------------------------------------------------------


def _baseline_key(finding: Finding, line_text: str) -> tuple[str, str, str]:
    return (finding.rule, finding.path, line_text)


def load_baseline(path: pathlib.Path) -> Counter:
    """The committed grandfather list as a multiset of match keys.

    A missing file is an empty baseline; a malformed one is an error the
    CLI surfaces as exit 2 (a silently ignored baseline would un-baseline
    everything and fail the build confusingly).
    """
    if not path.exists():
        return Counter()
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path} is not a version-{BASELINE_VERSION} lint baseline")
    counter: Counter = Counter()
    for entry in data.get("entries", []):
        counter[(entry["rule"], entry["path"], entry["text"])] += 1
    return counter


def save_baseline(path: pathlib.Path, report: "LintReport") -> None:
    """Grandfather every current finding (new *and* previously baselined)."""
    entries = [
        {
            "rule": f.rule,
            "path": f.path,
            "line": f.line,
            "text": text,
        }
        for f, text in sorted(
            report.baseline_material, key=lambda pair: (pair[0], pair[1])
        )
    ]
    payload = {"version": BASELINE_VERSION, "entries": entries}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- the runner ----------------------------------------------------------------


@dataclass
class LintReport:
    """Outcome of one lint run over a file set."""

    findings: list[Finding] = field(default_factory=list)   # fail the run
    baselined: list[Finding] = field(default_factory=list)  # grandfathered
    suppressed: int = 0
    files: int = 0
    #: every (finding, source line text) pair eligible for a baseline
    baseline_material: list[tuple[Finding, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def summary_line(self) -> str:
        noun = "finding" if len(self.findings) == 1 else "findings"
        return (
            f"{len(self.findings)} {noun} "
            f"({len(self.baselined)} baselined, {self.suppressed} suppressed) "
            f"in {self.files} files"
        )


def iter_python_files(
    root: pathlib.Path, paths: Iterable[str]
) -> Iterator[pathlib.Path]:
    """Every ``*.py`` under the given paths (files accepted verbatim)."""
    for raw in paths:
        p = (root / raw).resolve() if not pathlib.Path(raw).is_absolute() \
            else pathlib.Path(raw)
        if p.is_file():
            yield p
            continue
        if not p.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for sub in sorted(p.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in sub.parts):
                continue
            yield sub


#: What ``repro lint`` checks when no paths are given.
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def run_lint(
    root: pathlib.Path,
    paths: Iterable[str] = DEFAULT_PATHS,
    rules: Iterable[Rule] | None = None,
    baseline: Counter | None = None,
) -> LintReport:
    """Run every applicable rule over every file; classify the findings.

    ``baseline`` is the loaded grandfather multiset (see
    :func:`load_baseline`); pass ``Counter()`` — or nothing — for none.
    """
    active = list(rules) if rules is not None else all_rules()
    remaining = Counter(baseline or ())
    report = LintReport()
    for abspath in iter_python_files(root, paths):
        mod = ModuleSource(root, abspath)
        report.files += 1
        raw: list[Finding] = []
        if mod.parse_failure is not None:
            raw.append(mod.parse_failure)
        else:
            for rule in active:
                if rule.applies_to(mod.path):
                    raw.extend(rule.check(mod))
            raw.extend(mod.invalid_suppressions)
        for f in sorted(raw):
            if f.rule not in (PARSE_ERROR, INVALID_SUPPRESSION) and \
                    f.rule in mod.suppressions.get(f.line, ()):
                report.suppressed += 1
                continue
            text = mod.line_text(f.line)
            report.baseline_material.append((f, text))
            if remaining[_baseline_key(f, text)] > 0:
                remaining[_baseline_key(f, text)] -= 1
                report.baselined.append(f)
            else:
                report.findings.append(f)
    report.findings.sort()
    report.baselined.sort()
    return report


# -- rendering -----------------------------------------------------------------


def render_text(report: LintReport) -> str:
    """The human format the CLI golden test pins."""
    out = [f.render() for f in report.findings]
    for f in report.baselined:
        out.append(f"{f.render()} [baselined]")
    out.append(report.summary_line())
    return "\n".join(out) + "\n"


def render_json(report: LintReport) -> str:
    """One JSON document (the CI job parses the counts)."""
    payload = {
        "version": BASELINE_VERSION,
        "files": report.files,
        "counts": {
            "findings": len(report.findings),
            "baselined": len(report.baselined),
            "suppressed": report.suppressed,
        },
        "findings": [f.to_json() for f in report.findings],
        "baselined": [f.to_json() for f in report.baselined],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

#!/usr/bin/env python3
"""Documentation lint: link integrity and CLI-reference freshness.

Five checks, run by the CI ``docs-lint`` job:

1. **Links** — every relative markdown link in the maintained docs
   (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md) points at a file
   that exists, and every ``#anchor`` fragment resolves to a heading in
   the target file (GitHub slug rules: lowercase, drop everything but
   alphanumerics/spaces/hyphens, spaces become hyphens, duplicates get
   ``-N`` suffixes).
2. **CLI reference** — the block between ``<!-- cli: begin -->`` and
   ``<!-- cli: end -->`` in README.md matches the help text generated
   from ``repro.cli.build_parser()`` with ``COLUMNS=80`` pinned, so the
   committed reference can never drift from ``python -m repro --help``.
3. **Required anchors** — operator guides other docs deep-link into
   must keep their load-bearing headings (see ``REQUIRED_ANCHORS``);
   renaming one breaks every cross-reference silently, so the lint
   fails loudly instead.
4. **Code references** — every backticked dotted path into the package
   (e.g. ``repro.engine.session.Session``) outside fenced blocks
   resolves: the longest importable module prefix, then ``getattr``
   for the rest.  Deleting or renaming a class fails here instead of
   leaving the docs pointing at nothing.
5. **Repo paths** — every backticked repo-relative path under
   ``tools/``, ``benchmarks/``, ``examples/``, ``tests/``, ``docs/`` or
   ``src/``, and every ``BENCH_*.json`` name, outside fenced blocks
   exists, so deleting a file cannot leave a command in the docs that
   names it.

``--write`` regenerates the README block in place instead of failing.

Usage::

    PYTHONPATH=src python tools/docs_lint.py [--write]
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The docs this repo maintains by hand (retrieval notes like PAPERS.md
#: and SNIPPETS.md quote external material and are not linted).
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

CLI_BEGIN = "<!-- cli: begin -->"
CLI_END = "<!-- cli: end -->"

#: Heading anchors a doc must keep because other docs deep-link to
#: them (repo-relative path -> required GitHub anchor slugs).
REQUIRED_ANCHORS: dict[str, tuple[str, ...]] = {
    "docs/TUNING.md": (
        "signal-sources",
        "knob-semantics",
        "hysteresis-knobs",
        "reading-the-decision-trace",
        "worked-example-alpha-drifting-under-diurnal-load",
    ),
}

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^()\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^\s*(```|~~~)")
_CODE_REF_RE = re.compile(r"`(repro(?:\.\w+)+)`")
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")
_REPO_PATH_RE = re.compile(
    r"(?<![\w./-])"
    r"((?:tools|benchmarks|examples|tests|docs|src)/[\w./*<>-]*|BENCH_[\w*]+\.json)"
)
#: A path with one of these is a pattern (``examples/*.py``), not a file.
_GLOB_CHARS = frozenset("*<>")


def doc_paths() -> list[Path]:
    paths = [ROOT / name for name in DOC_FILES]
    paths.extend(sorted((ROOT / "docs").glob("*.md")))
    return [p for p in paths if p.exists()]


def _unfenced_lines(text: str):
    """Yield (lineno, line) for lines outside fenced code blocks."""
    fence = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _FENCE_RE.match(line)
        if match:
            marker = match.group(1)
            if fence is None:
                fence = marker
            elif marker == fence:
                fence = None
            continue
        if fence is None:
            yield lineno, line


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line (formatting stripped)."""
    text = re.sub(r"[`*_]", "", heading).lower()
    text = "".join(c for c in text if c.isalnum() or c in " -")
    return text.replace(" ", "-")


def heading_slugs(text: str) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for _, line in _unfenced_lines(text):
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(paths: list[Path]) -> list[str]:
    errors: list[str] = []
    slug_cache: dict[Path, set[str]] = {}

    def slugs_of(path: Path) -> set[str]:
        if path not in slug_cache:
            slug_cache[path] = heading_slugs(path.read_text())
        return slug_cache[path]

    for path in paths:
        text = path.read_text()
        rel = path.relative_to(ROOT)
        for lineno, line in _unfenced_lines(text):
            for target in _LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                file_part, _, anchor = target.partition("#")
                dest = (
                    path
                    if not file_part
                    else (path.parent / file_part).resolve()
                )
                if not dest.exists():
                    errors.append(
                        f"{rel}:{lineno}: broken link {target!r} "
                        f"({file_part} does not exist)"
                    )
                    continue
                if anchor and dest.suffix == ".md":
                    if anchor not in slugs_of(dest):
                        errors.append(
                            f"{rel}:{lineno}: broken anchor {target!r} "
                            f"(no heading slugs to #{anchor} in "
                            f"{dest.relative_to(ROOT)})"
                        )
    return errors


def check_required_anchors() -> list[str]:
    errors: list[str] = []
    for rel, anchors in REQUIRED_ANCHORS.items():
        path = ROOT / rel
        if not path.exists():
            errors.append(f"{rel}: required doc is missing")
            continue
        slugs = heading_slugs(path.read_text())
        for anchor in anchors:
            if anchor not in slugs:
                errors.append(
                    f"{rel}: required anchor #{anchor} has no heading "
                    "(other docs deep-link to it)"
                )
    return errors


def resolve_code_ref(dotted: str) -> str | None:
    """Why ``dotted`` does not resolve, or ``None`` when it does."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        name = ".".join(parts[:i])
        try:
            obj = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name and (name + ".").startswith(exc.name + "."):
                continue  # not a module: try a shorter prefix
            return f"importing {name} failed: {exc}"
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return f"{name} has no attribute {attr!r}"
            obj = getattr(obj, attr)
            name = f"{name}.{attr}"
        return None
    return f"no module {parts[0]!r}"


def check_code_refs(paths: list[Path]) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    errors: list[str] = []
    for path in paths:
        rel = path.relative_to(ROOT)
        for lineno, line in _unfenced_lines(path.read_text()):
            for dotted in _CODE_REF_RE.findall(line):
                reason = resolve_code_ref(dotted)
                if reason:
                    errors.append(
                        f"{rel}:{lineno}: dangling code reference "
                        f"`{dotted}` ({reason})"
                    )
    return errors


def check_repo_paths(paths: list[Path]) -> list[str]:
    errors: list[str] = []
    for path in paths:
        rel = path.relative_to(ROOT)
        for lineno, line in _unfenced_lines(path.read_text()):
            for span in _CODE_SPAN_RE.findall(line):
                for target in _REPO_PATH_RE.findall(span):
                    if _GLOB_CHARS.isdisjoint(target) and not (
                        ROOT / target
                    ).exists():
                        errors.append(
                            f"{rel}:{lineno}: dangling path `{target}` "
                            "(no such file or directory)"
                        )
    return errors


def generate_cli_reference() -> str:
    """The README CLI block, from the live parser at a pinned width."""
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    chunks = ["$ repro --help", parser.format_help().rstrip()]
    subparsers = next(
        a
        for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in subparsers.choices.items():
        chunks.append("")
        chunks.append(f"$ repro {name} --help")
        chunks.append(sub.format_help().rstrip())
    body = "\n".join(chunks)
    return f"```text\n{body}\n```"


def check_cli_reference(write: bool) -> list[str]:
    readme = ROOT / "README.md"
    text = readme.read_text()
    if CLI_BEGIN not in text or CLI_END not in text:
        return [f"README.md: missing {CLI_BEGIN} / {CLI_END} markers"]
    head, _, rest = text.partition(CLI_BEGIN)
    inside, _, tail = rest.partition(CLI_END)
    expected = generate_cli_reference()
    if inside.strip() == expected:
        return []
    if write:
        readme.write_text(
            f"{head}{CLI_BEGIN}\n{expected}\n{CLI_END}{tail}"
        )
        print("README.md: CLI reference regenerated")
        return []
    return [
        "README.md: CLI reference is stale — regenerate with "
        "`python tools/docs_lint.py --write`"
    ]


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--write",
        action="store_true",
        help="rewrite the README CLI reference instead of failing",
    )
    args = cli.parse_args(argv)
    paths = doc_paths()
    errors = check_links(paths)
    errors += check_required_anchors()
    errors += check_code_refs(paths)
    errors += check_repo_paths(paths)
    errors += check_cli_reference(write=args.write)
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(
            f"docs OK: {len(paths)} files, links + anchors + "
            "code references + repo paths + CLI reference clean"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

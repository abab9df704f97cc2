"""Tests for the docs lint's code-reference check (tools/docs_lint.py)."""

import importlib.util
from pathlib import Path

import pytest

_LINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "docs_lint.py"


@pytest.fixture(scope="module")
def docs_lint():
    spec = importlib.util.spec_from_file_location("docs_lint", _LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resolve_code_ref(docs_lint):
    assert docs_lint.resolve_code_ref("repro.engine.session.Session") is None
    assert docs_lint.resolve_code_ref("repro.adaptive.controller") is None
    reason = docs_lint.resolve_code_ref("repro.adaptive.NoSuchController")
    assert "NoSuchController" in reason
    assert "'nope'" in docs_lint.resolve_code_ref("repro.nope.Thing")


def test_check_code_refs_flags_only_the_dangling_one(
    docs_lint, tmp_path, monkeypatch
):
    monkeypatch.setattr(docs_lint, "ROOT", tmp_path)
    doc = tmp_path / "README.md"
    doc.write_text(
        "Good: `repro.engine.session.Session`.\n"
        "Dangling: `repro.engine.session.Gone`.\n"
        "```\n"
        "`repro.fenced.is.ignored`\n"
        "```\n"
    )
    errors = docs_lint.check_code_refs([doc])
    assert len(errors) == 1
    assert errors[0].startswith("README.md:2: dangling code reference")
    assert "repro.engine.session.Gone" in errors[0]


def test_check_repo_paths_flags_only_the_missing_one(
    docs_lint, tmp_path, monkeypatch
):
    monkeypatch.setattr(docs_lint, "ROOT", tmp_path)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "bench_gate.py").write_text("")
    doc = tmp_path / "README.md"
    doc.write_text(
        "Run `python tools/bench_gate.py ../parent`.\n"
        "Gone: `python tools/old_gate.py REPORT.json` and `BENCH_old.json`.\n"
        "Patterns are not files: `tools/*.py`, `BENCH_*.json`.\n"
        "Unquoted tools/gone.py is prose, not a path.\n"
        "```\n"
        "`tools/fenced_is_ignored.py`\n"
        "```\n"
    )
    errors = docs_lint.check_repo_paths([doc])
    assert errors == [
        "README.md:2: dangling path `tools/old_gate.py` "
        "(no such file or directory)",
        "README.md:2: dangling path `BENCH_old.json` "
        "(no such file or directory)",
    ]

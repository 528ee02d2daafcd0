"""The documentation's relative links must resolve (CI-checked contract).

Runs ``tools/check_doc_links.py`` — the same script the CI docs job uses —
over README.md, docs/*.md and the Python sources' doc mentions, plus unit
checks of its scanners.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_doc_links.py"


def run_checker(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


class TestRepoDocs:
    def test_docs_exist(self):
        assert (REPO_ROOT / "docs" / "architecture.md").is_file()
        assert (REPO_ROOT / "docs" / "harness.md").is_file()

    def test_all_relative_links_resolve(self):
        result = run_checker()
        assert result.returncode == 0, result.stdout + result.stderr


class TestChecker:
    def test_broken_link_detected(self, tmp_path):
        doc = tmp_path / "broken.md"
        doc.write_text("see [missing](does-not-exist.md) here\n")
        result = run_checker(str(doc))
        assert result.returncode == 1
        assert "does-not-exist.md" in result.stdout

    def test_external_and_fragment_links_skipped(self, tmp_path):
        doc = tmp_path / "ok.md"
        (tmp_path / "other.md").write_text("x\n")
        doc.write_text(
            "[a](https://example.com) [b](#section) [c](other.md#part)\n"
        )
        result = run_checker(str(doc))
        assert result.returncode == 0, result.stdout

    def test_stale_doc_mention_in_python_detected(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            '"""See docs/architecture.md and DESIGN.md."""\n'
            "# README.md is fine too\n")
        result = run_checker(str(module))
        assert result.returncode == 1
        assert "module.py:1: stale doc mention -> DESIGN.md" in result.stdout
        assert "architecture.md" not in result.stdout
        assert "README.md" not in result.stdout

    def test_missing_input_file_fails(self, tmp_path):
        result = run_checker(str(tmp_path / "absent.md"))
        assert result.returncode == 1

"""Tests for the documentation tooling.

The docs site itself is built by the CI ``docs`` job (mkdocs with
``--strict``); these tests keep the pieces that do not need mkdocs honest:

* the API-reference generator covers **every public symbol** of
  ``repro.core`` and ``repro.network`` (acceptance criterion of the docs
  satellite),
* the committed ``docs/api`` pages are in sync with the generator,
* the cross-reference checker passes on the repository itself.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"

sys.path.insert(0, str(DOCS_DIR))
gen_api_reference = importlib.import_module("gen_api_reference")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    output = tmp_path_factory.mktemp("api")
    gen_api_reference.generate(output)
    return output


class TestApiReferenceCoverage:
    @pytest.mark.parametrize("package_name", ["repro.core", "repro.network"])
    def test_every_public_symbol_is_documented(self, generated, package_name):
        package = importlib.import_module(package_name)
        page = (generated / f"{package_name.replace('.', '_')}.md").read_text()
        missing = [
            name
            for name in package.__all__
            if f"### `{name}`" not in page and f"### `{name}(" not in page
        ]
        assert not missing, f"{package_name} symbols missing from the API reference: {missing}"

    def test_all_packages_have_pages(self, generated):
        for package_name in gen_api_reference.PACKAGES:
            assert (generated / f"{package_name.replace('.', '_')}.md").exists()
        assert (generated / "index.md").exists()

    def test_new_backend_symbols_are_documented(self, generated):
        page = (generated / "repro_network.md").read_text()
        for symbol in ("Communicator", "ProcessComm", "SimComm", "WorkerError", "make_communicator"):
            assert f"### `{symbol}`" in page or f"### `{symbol}(" in page

    def test_core_page_documents_run_driver(self, generated):
        page = (generated / "repro_core.md").read_text()
        assert "### `DistributedSamplingRun`" in page
        assert "`run_for(self, seconds" in page
        assert "warmup_rounds" in page
        assert "wall" in page.lower()


class TestCommittedPagesInSync:
    def test_committed_api_pages_match_generator(self, generated):
        committed = DOCS_DIR / "api"
        assert committed.is_dir(), "docs/api is missing; run docs/gen_api_reference.py"
        fresh = {p.name: p.read_text() for p in generated.glob("*.md")}
        on_disk = {p.name: p.read_text() for p in committed.glob("*.md")}
        assert set(fresh) == set(on_disk)
        stale = [name for name in fresh if fresh[name] != on_disk[name]]
        assert not stale, (
            f"docs/api pages are stale: {stale}; regenerate with "
            "`PYTHONPATH=src python docs/gen_api_reference.py`"
        )


class TestLinkChecker:
    def test_repository_cross_references_resolve(self):
        result = subprocess.run(
            [sys.executable, str(DOCS_DIR / "check_links.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_checker_detects_broken_link(self, tmp_path, monkeypatch):
        import check_links

        page = tmp_path / "docs" / "broken.md"
        page.parent.mkdir()
        page.write_text("see [missing](does-not-exist.md)")
        (tmp_path / "README.md").write_text("fine")
        monkeypatch.setattr(check_links, "REPO_ROOT", tmp_path)
        assert check_links.main() == 1

"""Docs-site and docstring health: links resolve, examples actually run.

Three layers of protection, none of which needs the mkdocs toolchain:

* the stdlib link checker (``docs/check_links.py``, also run by the CI
  docs job next to ``mkdocs build --strict``) finds broken internal
  references in ``docs/`` and the README;
* the README's fenced Python blocks are executed -- the quickstart as a
  script, the ``pool()`` example through doctest -- so the front page
  cannot silently rot;
* the public driver/API surface's docstring examples run under doctest
  (every public callable documents ``backend=`` /
  ``schedule_seed=`` with a runnable example).
"""

import doctest
import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO / "docs" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsSite:
    def test_site_skeleton_exists(self):
        assert (REPO / "mkdocs.yml").exists()
        for page in ("index.md", "architecture.md", "warm-pools.md",
                     "writing-a-backend.md",
                     "determinism-and-faults.md", "observability.md",
                     "cli.md"):
            assert (REPO / "docs" / page).exists(), page

    def test_no_broken_internal_links(self):
        errors = _load_check_links().check()
        assert errors == []


def _readme_python_blocks():
    text = (REPO / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadmeExamples:
    @pytest.mark.subprocess  # the quickstart spawns a process-backend fleet
    def test_quickstart_block_runs(self):
        blocks = [b for b in _readme_python_blocks() if ">>>" not in b]
        assert blocks, "README lost its quickstart code block"
        from repro.pro.backends.pool import clear_default_pools

        try:
            exec(compile(blocks[0], "README.md:quickstart", "exec"), {})
        finally:
            clear_default_pools()

    @pytest.mark.subprocess
    def test_pool_example_doctests(self):
        blocks = [b for b in _readme_python_blocks() if ">>>" in b]
        assert blocks, "README lost its doctested pool() example"
        parser = doctest.DocTestParser()
        runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
        for i, block in enumerate(blocks):
            test = parser.get_doctest(block, {}, f"README-block-{i}",
                                      "README.md", 0)
            runner.run(test)
        assert runner.failures == 0, f"README doctest failures: {runner.failures}"
        assert runner.tries > 0


def _public_modules():
    import importlib

    return [importlib.import_module(name) for name in (
        "repro.core.api", "repro.core.parallel_matrix",
        "repro.core.permutation", "repro.pro.machine",
        "repro.pro.backends.pool", "repro.pro.telemetry",
    )]


class TestDocstringExamples:
    @pytest.mark.subprocess  # pool examples spawn (and clear) a warm fleet
    @pytest.mark.parametrize("module", _public_modules(),
                             ids=lambda m: m.__name__)
    def test_module_doctests_pass(self, module):
        from repro.pro.backends.pool import clear_default_pools

        try:
            result = doctest.testmod(module, verbose=False)
        finally:
            clear_default_pools()
        assert result.failed == 0, f"{module.__name__}: {result.failed} failed"
        assert result.attempted > 0, f"{module.__name__} has no examples"

    def test_driver_docstrings_cover_the_machine_options(self):
        """The drivers point to resolve_machine, which documents every option."""
        import inspect

        from repro.core.api import sample_communication_matrix
        from repro.core.parallel_matrix import sample_matrix_parallel
        from repro.core.permutation import (
            permute_distributed,
            random_permutation,
            random_permutation_indices,
        )
        from repro.pro.machine import resolve_machine

        for fn in (sample_communication_matrix, sample_matrix_parallel,
                   permute_distributed, random_permutation,
                   random_permutation_indices):
            assert "resolve_machine" in fn.__doc__, fn.__name__
            assert ">>>" in fn.__doc__, fn.__name__
        options = [name for name, param in inspect.signature(resolve_machine).parameters.items()
                   if param.kind is inspect.Parameter.KEYWORD_ONLY and name != "machine"]
        assert len(options) == 5
        for option in options:
            assert f"``{option}``" in resolve_machine.__doc__, option
        assert ">>>" in resolve_machine.__doc__

"""``scripts/check_dead_code.py``: ``src/`` stays free of dead code."""

import importlib.util
import pathlib
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_dead_code():
    """The checker script, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        "check_dead_code", REPO_ROOT / "scripts" / "check_dead_code.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


@pytest.fixture
def tree(tmp_path):
    """A small repo: one package, one example, one test file."""
    write(tmp_path, "src/pkg/__init__.py", """\
        from .mod import Public, entry
        from .mod import helper

        __all__ = ["Public", "entry"]
        """)
    write(tmp_path, "src/pkg/mod.py", """\
        from __future__ import annotations

        import os
        import sys
        from typing import Optional


        def entry(flag: "Optional[int]" = None):
            import json
            return sys.argv, Public()


        class Public:
            pass


        def helper():
            return 1


        def only_helper_caller():
            return helper()


        def kept():
            return 2
        """)
    write(tmp_path, "examples/demo.py", """\
        from pkg import entry

        entry()
        """)
    write(tmp_path, "tests/test_mod.py", """\
        from pkg.mod import helper, kept, only_helper_caller
        """)
    return tmp_path


class TestRepository:
    def test_src_is_clean(self, check_dead_code):
        assert check_dead_code.check() == []

    def test_main_exits_zero(self, check_dead_code, capsys):
        assert check_dead_code.main() == 0
        assert "no dead code" in capsys.readouterr().out

    def test_keep_list_is_short_and_explained(self, check_dead_code):
        assert len(check_dead_code.KEEP) <= 12
        for name, reason in check_dead_code.KEEP.items():
            assert reason.split(":")[0] in ("user-facing", "oracle"), name
            assert len(reason) > len("oracle: "), name


class TestFindings:
    def test_flags_unused_imports(self, check_dead_code, tree):
        findings = check_dead_code.check(tree, keep={})
        assert "src/pkg/mod.py:3: unused import 'os'" in findings
        assert "src/pkg/mod.py:9: unused import 'json'" in findings
        # an ``__init__`` import counts as used only through ``__all__``
        assert "src/pkg/__init__.py:2: unused import 'helper'" in findings
        # a name read only inside a quoted annotation is used
        assert not any("'Optional'" in f or "'sys'" in f for f in findings)

    def test_flags_unreferenced_defs_to_a_fixpoint(self, check_dead_code, tree):
        findings = check_dead_code.check(tree, keep={})
        flagged = {f.split("'")[1] for f in findings if "named by no live code" in f}
        # tests/ never keeps a symbol alive; ``helper``'s only caller is
        # dead, so it is dead too; ``Public`` is live through ``entry``.
        assert flagged == {"helper", "only_helper_caller", "kept"}

    def test_keep_exempts_a_symbol_and_its_callees(self, check_dead_code, tree):
        findings = check_dead_code.check(tree, keep={"only_helper_caller": "oracle: x"})
        flagged = {f.split("'")[1] for f in findings if "named by no live code" in f}
        assert flagged == {"kept"}

    def test_flags_stale_keep_entries(self, check_dead_code, tree):
        keep = {"vanished": "oracle: gone", "entry": "user-facing: now live"}
        findings = check_dead_code.check(tree, keep=keep)
        assert "KEEP['vanished']: stale, no top-level src/ symbol has this name" in findings
        assert "KEEP['entry']: stale, live code names it now" in findings

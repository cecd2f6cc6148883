"""Program model: symbol tables, imports, mutable globals."""

import textwrap

from repro.check.analysis.program import Program, module_name_for


def _program(**files: str) -> Program:
    sources = {
        path.replace("__", "/") + ".py": textwrap.dedent(text)
        for path, text in files.items()
    }
    return Program.from_sources(sources)


class TestModuleNames:
    def test_strips_src_and_init(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"


class TestSymbolTables:
    def test_functions_classes_and_methods_are_indexed(self):
        program = _program(
            src__repro__a="""
            class Widget:
                def spin(self):
                    pass

            def helper():
                pass
            """
        )
        assert "repro.a.helper" in program.functions
        assert "repro.a.Widget.spin" in program.functions
        assert "Widget" in program.modules["repro.a"].classes

    def test_site_key_matches_clock_allowlist_format(self):
        program = _program(
            src__repro__a="""
            class Widget:
                def spin(self):
                    pass

            def helper():
                pass
            """
        )
        assert (
            program.functions["repro.a.Widget.spin"].site
            == "src/repro/a.py::Widget.spin"
        )
        assert program.functions["repro.a.helper"].site == "src/repro/a.py::helper"

    def test_import_aliases(self):
        program = _program(
            src__repro__a="""
            import numpy as np
            from repro.b import helper as h
            """,
            src__repro__b="""
            def helper():
                pass
            """,
        )
        imports = program.modules["repro.a"].imports
        assert imports["np"] == "numpy"
        assert imports["h"] == "repro.b.helper"

    def test_syntax_error_modules_are_skipped(self):
        program = Program.from_sources(
            {
                "src/repro/bad.py": "def broken(:\n",
                "src/repro/good.py": "def fine():\n    pass\n",
            }
        )
        assert "repro.bad" not in program.modules
        assert "repro.good.fine" in program.functions


class TestMutableGlobals:
    def test_detects_containers_counters_and_program_classes(self):
        program = _program(
            src__repro__a="""
            import itertools

            class Registry:
                pass

            HINTS = {}
            SEEN = set()
            COUNTER = itertools.count()
            SHARED = Registry()
            LIMIT = 5
            NAMES = ("a", "b")
            FROZEN = frozenset({1})
            """
        )
        globals_ = program.modules["repro.a"].mutable_globals
        assert set(globals_) == {"HINTS", "SEEN", "COUNTER", "SHARED"}

    def test_unknown_constructor_is_not_mutable(self):
        program = _program(
            src__repro__a="""
            import re

            PATTERN = re.compile("x")
            """
        )
        assert program.modules["repro.a"].mutable_globals == {}


class TestFromTree:
    def test_non_utf8_files_are_skipped(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "good.py").write_text("def fine():\n    pass\n")
        (pkg / "binary.py").write_bytes(b"\xff\xfe\x00bad")
        program = Program.from_tree(tmp_path)
        assert "repro.good.fine" in program.functions
        assert "repro.binary" not in program.modules

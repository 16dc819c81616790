import ast
import contextlib
import importlib
import io
import pkgutil
import re
import types
from pathlib import Path

import permartingale


def test_all_exports_resolve_and_are_not_modules():
    assert len(permartingale.__all__) == len(set(permartingale.__all__))
    for name in permartingale.__all__:
        value = getattr(permartingale, name)
        assert not isinstance(value, types.ModuleType), name
    assert "verify" in permartingale.__all__
    assert "inequalities" not in permartingale.__all__
    assert set(permartingale.__all__) <= set(dir(permartingale))


def test_every_export_is_the_object_its_submodules_hold():
    # the lazy namespace hands out each submodule's own object, and the
    # engines re-export the choice enums of the leaf module
    modules = [
        importlib.import_module(f"permartingale.{info.name}")
        for info in pkgutil.iter_modules(permartingale.__path__)
        if info.name != "__main__"
    ]
    for name in permartingale.__all__:
        held = [vars(m)[name] for m in modules if name in vars(m)]
        assert held and all(v is getattr(permartingale, name) for v in held), name
    assert permartingale.inequalities.InequalityId is permartingale.InequalityId
    assert permartingale.construction.Basis is permartingale.Basis
    assert repr(permartingale.InequalityId.HARDY) == "<InequalityId.HARDY: 'hardy'>"
    assert repr(permartingale.VerifyMode.MONTE_CARLO) == "<VerifyMode.MONTE_CARLO: 'mc'>"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_print_what_they_say():
    # every python block runs in order in one namespace; a line
    # `print(...)  # text` must print a prefix of its comment
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    namespace: dict = {}
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            said = re.fullmatch(r"print\(.*\)\s+# (.*)", lines[stmt.end_lineno - 1])
            if said:
                printed = out.getvalue()
                assert printed.count("\n") == 1 and printed != "\n", printed
                assert said[1].startswith(printed[:-1]), (printed, said[1])
                checked += 1
    assert checked == 4

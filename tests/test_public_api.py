"""The package's advertised surface: exported names and the README quickstart."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import pytest

import proxrestart

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(proxrestart.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"proxrestart.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"proxrestart.{name}.__all__ names undefined {missing}"


def test_package_exports_resolve():
    missing = [attr for attr in proxrestart.__all__ if not hasattr(proxrestart, attr)]
    assert not missing, f"proxrestart.__all__ names undefined {missing}"


def test_readme_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quickstart", "exec"), {})
    assert "pass" in out.getvalue() and "FAIL" not in out.getvalue()

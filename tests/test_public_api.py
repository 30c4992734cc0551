"""The package's advertised surface: exported names and the README quickstart."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import pytest

import proxrestart
from proxrestart import cli, dataio, solver

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


def _schema_block(text):
    return re.search(r"### Config schema.*?```yaml\n(.*?)```", text, re.S).group(1)


def _schema_enumerations(text):
    """``{dotted key: options}`` of every ``key: a | b | ...`` line in the README's schema."""
    block = _schema_block(text)
    parents = []  # (indent, key) of the open mappings
    found = {}
    for line in block.splitlines():
        match = re.match(r"(\s*(?:- )?)(\w+):\s*([^#]*)", line)
        if not match:
            continue
        indent, key, value = len(match.group(1)), match.group(2), match.group(3).strip()
        while parents and parents[-1][0] >= indent:
            parents.pop()
        if "|" in value:
            found[".".join([k for _, k in parents] + [key])] = tuple(
                option.strip() for option in value.split("|"))
        parents.append((indent, key))
    return found


def test_readme_schema_lists_what_the_parser_takes():
    text = README.read_text(encoding="utf-8")
    # one field per line, a commented-out one included
    fields = {match.group(1) for line in _schema_block(text).splitlines()
              if (match := re.match(r"\s*(?:#\s*)?(?:-\s*)?(\w+):", line))}
    tagged = (cli._OBJECTIVES, cli._DATASETS, cli._REGULARIZERS, cli._SCHEMES)
    tables = [cli._ROOT, cli._SOLVER] + [table for section in tagged
                                         for _, table in section.values()]
    assert fields == {"objective", "source", "kind"}.union(*tables)
    found = _schema_enumerations(text)
    assert found == {
        "problem.objective": tuple(cli._OBJECTIVES),
        "problem.regularizer.kind": tuple(cli._REGULARIZERS),
        "problem.dataset.kind": dataio.SYNTHETIC_KINDS,
        "solvers.algorithm": cli._ALGORITHMS,
        "solvers.scheme.kind": tuple(cli._SCHEMES),
        "solvers.stepsize_mode": solver._MODES,
    }

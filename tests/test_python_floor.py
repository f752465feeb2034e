"""The requires-python floor, 3.10: every module of the package and its tests parses
as 3.10 source, and the package reads no standard-library name that is new in 3.11.

The benchmark harness under ``perfbench`` is left out: only the benchmark host runs it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "rydkit"
NEW_IN_3_11 = {
    "math.cbrt", "math.exp2", "tomllib", "typing.Self", "ExceptionGroup",
    "BaseExceptionGroup", "enum.StrEnum", "datetime.UTC",
}


def _names(tree) -> set[str]:
    """Every dotted name ``tree`` imports or reads, through its import aliases: after
    ``import math as m`` or ``from math import cbrt``, ``m.cbrt`` and ``cbrt`` read
    ``math.cbrt``."""
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
                top = alias.name.partition(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names.add(full := f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{bound.get(node.value.id, node.value.id)}.{node.attr}")
        elif isinstance(node, ast.Name):
            names.add(bound.get(node.id, node.id))
    return names


def test_every_module_parses_as_python_3_10():
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_package_reads_no_name_new_in_python_3_11():
    for path in sorted(SRC.rglob("*.py")):
        assert not _names(ast.parse(path.read_text())) & NEW_IN_3_11, path


def test_each_name_new_in_python_3_11_is_seen():
    source = """
import math as m, tomllib
from typing import Self
from enum import StrEnum as S
import datetime
m.cbrt(8.0), m.exp2(3.0), datetime.UTC
raise ExceptionGroup("", [BaseExceptionGroup("", [ValueError()])])
"""
    assert _names(ast.parse(source)) >= NEW_IN_3_11

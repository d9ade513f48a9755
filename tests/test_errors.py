"""The exception hierarchy holds no class that nothing raises."""

import ast
from pathlib import Path

import lpacket

PACKAGE = Path(lpacket.__file__).parent


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_error_class_is_raised_or_built_in_the_package():
    # deleting the last raise site of a class must delete the class too
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    declared = {node.name for node in errors.body
                if isinstance(node, ast.ClassDef)}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                used.add(_name(node.func))
            elif isinstance(node, ast.Raise):
                used.add(_name(node.exc))
    assert "LPacketError" in declared
    assert sorted(declared - used) == []

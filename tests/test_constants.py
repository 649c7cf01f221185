"""Every module-level numeric constant of the library has one binding."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hrbfsurf"


def _numeric(node):
    """Whether ``node`` is a numeric literal expression, such as 1e-4, -3 or 1 << 14."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _numeric(node.operand)
    if isinstance(node, ast.BinOp):
        return _numeric(node.left) and _numeric(node.right)
    return False


def _constants(tree):
    """Names that a module binds to a numeric literal at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _numeric(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _imported_constants(src):
    """``importer: module.NAME`` for each numeric constant of a module in ``src``
    that another module there imports by name."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    constants = {name: _constants(tree) for name, tree in trees.items()}
    found = []
    for importer, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            module = node.module if node.level else node.module.removeprefix(f"{src.name}.")
            found += [f"{importer}: {module}.{a.name}" for a in node.names if a.name in constants.get(module, ())]
    return found


def test_no_module_imports_a_numeric_constant():
    # an imported constant is a second binding: a change or a patch of the
    # constant in its own module misses the importer's copy, so modules read
    # another's constants as module.NAME at call time
    assert _imported_constants(SRC) == []

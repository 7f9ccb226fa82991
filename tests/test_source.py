"""The package's source holds no code that only the tests use."""

import ast
from pathlib import Path

import memperceptron

SRC = Path(__file__).resolve().parents[1] / "src" / "memperceptron"
ENTRY_POINTS = {("cli", "main")}  # pyproject.toml's [project.scripts]


def _definitions(tree):
    """(name, statement) for each function, class and constant the module's top level defines."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and not node.id.startswith("__"):
                        yield node.id, stmt


def _references(stmt) -> set[str]:
    """The names a top-level statement reads, as variables or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)}


def test_every_top_level_name_is_public_or_used_by_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [f"{module}.{name}" for module, tree in trees.items() for name, stmt in _definitions(tree)
              if name not in memperceptron.__all__ and (module, name) not in ENTRY_POINTS
              and not any(name in refs for other, refs in used if other is not stmt)]
    assert unused == [], f"defined in src but neither public nor used there: {unused}"

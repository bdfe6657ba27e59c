"""Every import in the package, the tests and the scripts is used."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "docmix").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])
# (file, name) pairs imported on purpose for other modules to reach
RE_EXPORTS = {("src/docmix/em.py", "score_matrix")}


def unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    where = str(path.relative_to(ROOT))
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in unused if (where, name) not in RE_EXPORTS] == []

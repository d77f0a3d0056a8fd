"""The package exports only what it uses: every name ``ellipose/__init__.py``
imports is referenced in the code of another src module or of the
benchmark.  A name only tests use belongs in the tests, not in the API."""

import ast
from pathlib import Path

import ellipose

SRC = Path(ellipose.__file__).parent
BENCH = Path(__file__).parents[1] / "bench"

# exported before its producer exists: the planned detector stand-in that
# encodes exact outlines as head outputs (see ROADMAP.md); drop it from
# this set once that detector uses it
NO_USER_YET = {"perfect_prediction"}


def exports() -> dict:
    """Exported name -> path of the src module it is imported from."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name: SRC / f"{node.module}.py"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def references(path: Path) -> set:
    """Names a module's code refers to: names, attributes and imported
    names; docstrings and comments do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for alias in node.names for part in alias.name.split("."))
    return out


def test_every_export_has_a_user():
    users = [*sorted(SRC.glob("*.py")), *sorted(BENCH.rglob("*.py"))]
    assert BENCH / "run.py" in users
    refs = {path: references(path) for path in users if path != SRC / "__init__.py"}
    unused = {
        name for name, home in exports().items()
        if not any(name in names for path, names in refs.items() if path != home)
    }
    assert unused == NO_USER_YET, (
        f"exported, but no other src module and nothing in bench/ uses "
        f"{sorted(unused - NO_USER_YET)}; listed as without a user, but used: "
        f"{sorted(NO_USER_YET - unused)}"
    )


def test_references_skip_docstrings_and_comments(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""uses transform_ellipse"""\n# and canonicalize\nimport a.b as c\nx = y.z\n')
    assert references(path) == {"a", "b", "x", "y", "z"}

"""Module boundaries: no rislink module imports another one's private names."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rislink"


def _private_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = "." * node.level + (node.module or "")
        if node.level == 0 and source.split(".")[0] != "rislink":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {source}"


def test_no_private_imports_across_modules():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules under {SRC}"
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, "\n".join(found)

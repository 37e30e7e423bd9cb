"""Module boundaries: no private imports across modules, one scenario-to-branch map."""
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


def test_branch_scenarios_named_only_in_config():
    # config maps each scenario to its branch set; a second map elsewhere would fork it
    names = {"ris_only", "dt_only"}
    found = [
        f"{path.name}:{node.lineno} names {node.value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert not found, "\n".join(found)

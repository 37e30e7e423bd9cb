"""Module boundaries: no private imports across modules, one scenario-to-branch map, one SNR model per scenario,
one entry point per metric, one anchor rule, one sampler, and no scipy at run time."""
import ast
import os
import pathlib
import subprocess
import sys

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


def test_montecarlo_draws_only_what_config_returns():
    # config turns a scenario into SNR summands and their join; montecarlo reading the branch set,
    # the fading blocks, the geometry or the noise floor itself would decide the scenario a second time
    fields = {"elements", "direct", "branches", "geometry", "noise_dbm"}

    def hits(node):
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[-1] == "channel" or "channel" in {a.name for a in node.names}
        return isinstance(node, ast.Attribute) and node.attr in fields

    found = [
        f"montecarlo.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(ast.parse((SRC / "montecarlo.py").read_text(encoding="utf-8")))
        if hits(node)
    ]
    assert not found, "\n".join(found)


def test_metrics_has_one_entry_point_per_quantity():
    # each quantity takes the branch set as one stat or ensemble; an (elements, direct) twin would fork it
    functions = [
        (node, [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs])
        for node in ast.parse((SRC / "metrics.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert functions, "metrics defines no public function"
    found = [
        f"metrics.py:{node.lineno} {node.name}({', '.join(params)})"
        for node, params in functions
        if params[:1] not in (["stat"], ["ensemble"]) or {"elements", "direct"} <= set(params)
    ]
    assert not found, "\n".join(found)


def test_contour_anchors_chosen_only_in_foxh():
    # FoxHSpec places and checks its own anchors; a caller choosing them would fork the rule.
    # Forwarding a JSON spec's own optional contour_re field (foxh-eval) chooses nothing.
    def hits(node):
        if isinstance(node, ast.keyword):
            return node.arg == "contour_re" and ast.unparse(node.value) != "payload.get('contour_re')"
        return "suggest_anchors" in (getattr(node, field, None) for field in ("id", "attr", "name"))

    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "foxh.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if hits(node)
    ]
    assert not found, "\n".join(found)


def test_random_draws_only_in_dgg():
    # dgg draws every fading factor; a draw elsewhere would fork the sampler.
    # math.gamma is the Gamma function, not a draw.
    draws = {"gamma", "standard_gamma", "standard_exponential", "random"}

    def hits(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in draws
            and ast.unparse(node.func.value) != "math"
        )

    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dgg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if hits(node)
    ]
    assert not found, "\n".join(found)


def test_gamma_functions_only_in_foxh_special_dgg():
    # foxh evaluates the integrand's Gamma factors, special and dgg the closed forms around them;
    # a Gamma call elsewhere would write a factor layout a second time.
    names = {"gamma", "lgamma", "gammaln", "loggamma", "log_gamma", "digamma", "psi", "polygamma"}

    def hits(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names

    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("foxh.py", "special.py", "dgg.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if hits(node)
    ]
    assert not found, "\n".join(found)


def test_fading_fields_read_only_in_dgg():
    # dgg lists every block's generalized Gamma factors (gg_factors, mellin_layout);
    # reading a shape or scale field elsewhere would write a factor layout a second time.
    fields = {"alpha1", "beta1", "alpha2", "beta2", "omega1", "omega2"}
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dgg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
    assert not found, "\n".join(found)


def _scipy_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        yield from (f"{path.name}:{node.lineno} imports {name}" for name in names if name.split(".")[0] == "scipy")


def test_no_module_imports_scipy():
    # numpy is the one run-time dependency; scipy is a test oracle only
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _scipy_imports(path)]
    assert not found, "\n".join(found)


BLOCKED_SCIPY = """
import importlib, pathlib, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
for path in sorted(pathlib.Path(sys.argv[1]).glob("[!_]*.py")):
    importlib.import_module(f"rislink.{path.stem}")
from rislink import cli
code = cli.main(["verify", "--quiet"])
assert "scipy" not in sys.modules, "scipy was imported"
sys.exit(code)
"""


def test_verify_runs_with_scipy_blocked():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY, str(SRC)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

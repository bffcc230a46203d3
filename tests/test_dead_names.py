"""Every module-level function and class in src/ftspanner has a user in
the package or in the benchmark: some name, attribute, import or string
(perfbench's patch_plan names attributes by string) refers to it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# kept in src/ for the tests alone
ALLOWED = {
    "parmis.lex_first_mis": "the reference MIS the round MIS is tested against",
    "parmis.random_permutation": "draws acceptance 06's input orders",
}


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_src_definition_has_a_user():
    src = sorted((ROOT / "src" / "ftspanner").glob("*.py"))
    defined, used = {}, set()
    for path in src + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_references(tree))
        if path in src:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[f"{path.stem}.{node.name}"] = node.name
    assert len(defined) > 50, "the guard found too few definitions to mean anything"
    dead = sorted(q for q, name in defined.items() if name not in used)
    assert dead == sorted(ALLOWED)

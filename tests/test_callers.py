"""Every public function, class and method has a caller in the package,
and every private module-level name a reference.

Code that only tests reach is deleted or given a caller that a command
needs. The scan parses ``src/proxflow`` with ``ast`` and counts, for each
public top-level function or class and each public method, and for each
private module-level function, class and constant, the names and
attributes that refer to it outside its own definition. References from
tests and scripts do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proxflow"

# Kept without a caller in the package, each for a named reason.
ALLOWED_WITHOUT_CALLER = {
    # ROADMAP item 1: `run l1` and `run lsp` are to record the theorem
    # constants next to each tau's run.
    "theorem_bounds": "ROADMAP item 1",
    # the validated public prox operators that acceptance criterion 9
    # checks; the inner loops call their unchecked cores
    "prox_l1": "acceptance criterion 9",
    "prox_lsp": "acceptance criterion 9",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _uncalled(definitions=_definitions):
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))]
    used = {}
    for tree in trees:
        for node in ast.walk(tree):
            # a name only assigned to (a constant a function rebinds) is not used
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append(node)
    missing = []
    for tree in trees:
        for name, node in definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            refs = [n for n in used.get(name.rpartition(".")[2], []) if id(n) not in own]
            if not refs:
                missing.append(name)
    return missing


def test_every_public_definition_has_a_caller_in_the_package():
    missing = [name for name in _uncalled() if name not in ALLOWED_WITHOUT_CALLER]
    assert missing == []


def test_every_allowed_name_still_lacks_a_caller():
    # an entry that gains a caller leaves the list
    assert sorted(set(ALLOWED_WITHOUT_CALLER) - set(_uncalled())) == []


def test_every_private_module_level_name_is_referenced_in_the_package():
    assert _uncalled(_private_definitions) == []

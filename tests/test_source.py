import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "faylab"


def _dead_locals(tree):
    """(function, name, line) for every name a function binds but never
    reads, names starting with "_" excepted.  Reads in nested functions
    and comprehensions count, so closures are not flagged."""
    hits = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded, declared = {}, set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        for name, line in stored.items():
            if not name.startswith("_") and name not in loaded | declared:
                hits.append((fn.name, name, line))
    return hits


def test_dead_locals_detected():
    tree = ast.parse("def f(x):\n    a, b = x\n    def g():\n        return b\n"
                     "    for k, v in x.items():\n        pass\n    _, y = x\n"
                     "    return g, v\n")
    assert sorted(h[1] for h in _dead_locals(tree)) == ["a", "k", "y"]


def test_no_dead_locals_in_package():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for fn, name, line in _dead_locals(ast.parse(path.read_text())):
            hits.append(f"{path.name}:{line} {fn}: {name}")
    assert hits == [], "assigned but never read:\n" + "\n".join(hits)

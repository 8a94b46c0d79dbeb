import ast
import re
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


def _unread_attributes(trees):
    """(attribute, line) for every self.<name> the trees store but never
    read, on any object; an augmented assignment counts as a read."""
    stored, loaded = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                loaded.add(node.target.attr)
            elif isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    loaded.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.setdefault(node.attr, node.lineno)
    return sorted((name, line) for name, line in stored.items()
                  if name not in loaded)


def test_unread_attributes_detected():
    tree = ast.parse("class C:\n    def __init__(self, o):\n        self.a = 1\n"
                     "        self.b = 2\n        self.c = 0\n        self.c += 1\n"
                     "        o.d = 3\n    def f(self):\n        return self.b\n")
    assert [h[0] for h in _unread_attributes([tree])] == ["a"]


def test_no_unread_attributes_in_package():
    paths = sorted(SRC.glob("*.py"))
    hits = _unread_attributes([ast.parse(p.read_text()) for p in paths])
    assert hits == [], "stored but never read: " + ", ".join(n for n, _ in hits)


def _unreferenced_definitions(modules, trees):
    """(module, name, line) for every module-level function or class of
    `modules` that no tree names: as a bare name, as an attribute, or as a
    string that is a (dotted) identifier, as in monkeypatch.setattr.
    Imports do not count as uses."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[\w.]+", node.value)):
                used.update(node.value.split("."))
    return [(mod, node.name, node.lineno) for mod, tree in modules
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in used]


def test_unreferenced_definitions_detected():
    lib = ast.parse("def f():\n    return g()\ndef g():\n    pass\n"
                    "def h():\n    pass\nclass C:\n    pass\nclass D:\n    pass\n")
    user = ast.parse("from lib import C, h\nimport lib\nlib.f()\n"
                     "setattr(lib, 'lib.D', None)\n'''h is documented'''\n")
    hits = _unreferenced_definitions([("lib", lib)], [lib, user])
    assert [h[1] for h in hits] == ["h", "C"]


def test_no_unreferenced_definitions_in_package():
    root = SRC.parent.parent
    modules = [(p.name, ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))]
    users = [ast.parse(p.read_text()) for d in ("src", "tests", "perfbench")
             for p in sorted((root / d).rglob("*.py"))]
    hits = _unreferenced_definitions(modules, users)
    assert hits == [], "defined but never used: " + ", ".join(
        f"{mod}:{line} {name}" for mod, name, line in hits)

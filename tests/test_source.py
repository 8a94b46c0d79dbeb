import ast
import math
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


#: entries that take a whole list of points, lines or lifts, or a whole
#: report's arguments, in one call
BATCH_ENTRIES = {"aj", "h_values", "theta_form", "fay_F", "prime_form",
                 "massey_m3_prime", "massey_m3_theta", "theta_delta",
                 "line_section", "l_of_v"}

#: y at a point, one call per point unless given an array of x
Y_ENTRIES = {"y_principal"}


def _per_iteration(node):
    """The subtrees of a for loop or comprehension that run once per
    iteration (all but the iterable its first loop walks)."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body + node.orelse
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first, *rest = node.generators
        own = [getattr(node, f) for f in ("elt", "key", "value") if hasattr(node, f)]
        return own + first.ifs + rest
    return []


def _batch_calls_in_loops(tree):
    """(line, name) for every call of a BATCH_ENTRIES or Y_ENTRIES name, as
    a function or a method, that runs once per iteration of a loop or
    comprehension."""
    hits = set()
    for loop in ast.walk(tree):
        for part in _per_iteration(loop):
            for node in ast.walk(part):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in BATCH_ENTRIES | Y_ENTRIES:
                        hits.add((node.lineno, name))
    return sorted(hits)


def test_batch_calls_in_loops_detected():
    tree = ast.parse("def f(ctx, ps):\n    a = ctx.aj(ps)\n"
                     "    for v in ctx.aj(ps):\n        h_values(ctx, [v])\n"
                     "    b = [ctx.aj([p]) for p in ps]\n"
                     "    c = sum(theta_form(ctx, [p]) for p in ps)\n"
                     "    d = {p: k.h_values(ctx, [p]) for p in ps}\n"
                     "    e = [fay_F(ctx, v, v) for v in a]\n"
                     "    for h in ps:\n        y = c.y_principal(h)\n"
                     "    u = np.array([p.y(c) for p in ps])\n"
                     "    w = c.y_principal([p.x for p in ps]) * [p.sheet for p in ps]\n"
                     "    return [x for x in theta_form(ctx, ps)], a, b, c, d, e, y, u, w\n")
    assert _batch_calls_in_loops(tree) == [(4, "h_values"), (5, "aj"),
                                           (6, "theta_form"), (7, "h_values"),
                                           (8, "fay_F"), (10, "y_principal")]


def test_no_batch_calls_in_loops_in_package():
    # a point list goes to ctx.aj, h_values and theta_form in one call, an
    # evaluation's arguments to each kernel in one call, and an array of x
    # to y_principal in one call
    hits = [f"{p.name}:{line} {name}" for p in sorted(SRC.glob("*.py"))
            for line, name in _batch_calls_in_loops(ast.parse(p.read_text()))]
    assert hits == [], "batch entry called per point: " + ", ".join(hits)


def _attribute_gathers(tree):
    """Lines of every np.array or np.asarray call whose first argument is a
    list comprehension reading one attribute of its loop variable, as in
    np.array([p.x for p in ps]): a batch kept as objects, gathered a field
    at a time."""
    hits = []
    for node in ast.walk(tree):
        name = getattr(node, "func", None)
        name = getattr(name, "attr", getattr(name, "id", None))
        if name in {"array", "asarray"} and node.args and isinstance(node.args[0], ast.ListComp):
            elt, target = node.args[0].elt, node.args[0].generators[0].target
            if (isinstance(elt, ast.Attribute) and isinstance(elt.value, ast.Name)
                    and isinstance(target, ast.Name) and elt.value.id == target.id):
                hits.append(node.lineno)
    return hits


def test_attribute_gathers_detected():
    tree = ast.parse("xs = np.array([p.x for p in ps])\n"
                     "ys = np.asarray([q.sheet for q in ps], dtype=complex)\n"
                     "zs = np.array([p.x for q in ps])\n"
                     "ws = np.array([p[0] for p in ps]) + np.array([f(p) for p in ps])\n"
                     "us = array([p.real for p in ps if p])\n"
                     "ts = [p.x for p in ps]\n")
    assert _attribute_gathers(tree) == [1, 2, 5]


def test_no_attribute_gathers_in_package():
    # a batch of points is an (N, 2) array of rows (x, sheet), read by
    # column, not a list of objects read one field at a time
    hits = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
            for line in _attribute_gathers(ast.parse(p.read_text()))]
    assert hits == [], "attribute gathered per object: " + ", ".join(hits)


def _generator_functions(tree):
    """(function, its own nodes) for every function of the tree that
    yields; the nodes of functions and lambdas nested in it are not its
    own."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, todo = [], list(fn.body)
        while todo:
            node = todo.pop()
            own.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                     ast.ClassDef)):
                todo.extend(ast.iter_child_nodes(node))
        if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own):
            found.append((fn, own))
    return found


#: the draw samplers a body yields as (sampler, count) instead of calling
SAMPLERS = {"sample_points", "sample_point", "sample_xi", "random_line_bundle",
            "_distinct_points", "normals", "doubles"}


def _kernel_calls_in_generators(tree):
    """(function, line, name) for every call of a BATCH_ENTRIES name, of
    theta_batch or of a sampler that a generator function makes itself."""
    hits = []
    for fn, own in _generator_functions(tree):
        for node in own:
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in BATCH_ENTRIES | SAMPLERS | {"theta_batch"}:
                    hits.append((fn.name, node.lineno, name))
    return sorted(hits)


def test_kernel_calls_in_generators_detected():
    tree = ast.parse("def body(ctx, pts):\n    V = ctx.aj(pts)\n"
                     "    F = yield fay_F, V, V\n    th = theta_batch(F, ctx.rm)\n"
                     "    def inner():\n        return prime_form(ctx, pts, pts)\n"
                     "    return th, inner, [lambda: h_values(ctx, pts)]\n"
                     "def plain(ctx, pts):\n    return h_values(ctx, pts)\n"
                     "def sub(ctx):\n    x = yield from body(ctx, [])\n"
                     "    return CurveContext.theta_delta(ctx, x)\n"
                     "def outer(ctx):\n    def gen():\n        yield theta_form\n"
                     "    return massey_m3_prime(ctx, 1, 2, 3), gen\n"
                     "def drawn(ctx, take, rows):\n    pts = yield sample_points, 2\n"
                     "    xi = ids.sample_xi(ctx, take, rows, 1)\n"
                     "    pts, _ = _distinct_points(ctx, take, rows, 3)\n"
                     "    yield CurveContext.aj, pts\n"
                     "def helper(ctx, rng):\n    return sample_point(ctx, rng)\n")
    assert _kernel_calls_in_generators(tree) == [("body", 2, "aj"),
                                                 ("body", 4, "theta_batch"),
                                                 ("drawn", 19, "sample_xi"),
                                                 ("drawn", 20, "_distinct_points"),
                                                 ("sub", 12, "theta_delta")]


def test_kernel_calls_in_trial_axis_bodies_detected():
    # a trial-axis body (draws as (T, count, ...) arrays, kernel rows as
    # (T, m, ...)) that calls a kernel on its stacked rows, or a sampler
    # for its trials' streams, instead of yielding the request
    tree = ast.parse("def by_kernel(ctx):\n    pts = yield _distinct_points, 4\n"
                     "    V = (yield CurveContext.aj, pts).transpose(1, 0, 2)\n"
                     "    F = fay_F(ctx, V[0] - V[1], V[2] - V[3])\n"
                     "    return np.abs(F), np.abs(F)\n"
                     "def by_sampler(ctx, take, rows):\n"
                     "    xi, _ = sample_xi(ctx, take, rows, 1)\n"
                     "    th = yield _theta, xi\n"
                     "    return np.abs(th[:, 0]), np.abs(th[:, 0])\n"
                     "def by_normals(C4, take, rows):\n"
                     "    l, _ = quartic.normals(C4, take, rows, 3)\n"
                     "    u = yield doubles, 1\n"
                     "    pts = (yield line_section, l[:, None])[:, 0]\n"
                     "    return u[:, 0], _abs(pts[:, 0, 0])\n"
                     "def by_doubles(env, take, rows):\n"
                     "    z = yield normals, 36\n"
                     "    u, _ = doubles(env, take, rows, 4)\n"
                     "    r = _homological(_carrier(z, 3, 2), u)\n"
                     "    return r, r\n")
    assert _kernel_calls_in_generators(tree) == [("by_doubles", 17, "doubles"),
                                                 ("by_kernel", 4, "fay_F"),
                                                 ("by_normals", 11, "normals"),
                                                 ("by_sampler", 7, "sample_xi")]


def test_no_kernel_calls_in_identity_bodies():
    # an identity body yields its draw and kernel requests, which _drive
    # makes in one call per round; a body calling a sampler or a kernel
    # would make its own call, outside the round's one
    hits = []
    for name, bodies in (("identities.py", 15), ("quartic.py", 5), ("cli.py", 1)):
        tree = ast.parse((SRC / name).read_text())
        assert len(_generator_functions(tree)) >= bodies, name
        hits += [f"{name}:{line} {fn}: {kernel}"
                 for fn, line, kernel in _kernel_calls_in_generators(tree)]
    assert hits == [], "sampler or kernel called in a generator body: " + ", ".join(hits)


def _defaults(tree):
    """{name: [(qualname, [params with defaults, as (name, position)])]}
    for every function of the tree, with a method's first parameter dropped
    and a class's name mapped to its __init__ (position None: keyword only)."""
    found = {}

    def add(fn, name, qualname, skip):
        a = fn.args
        pos = (a.posonlyargs + a.args)[skip:]
        params = [(p.arg, i) for i, p in enumerate(pos)][len(pos) - len(a.defaults):]
        params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        if params:
            found.setdefault(name, []).append((qualname, params))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    name = node.name if fn.name == "__init__" else fn.name
                    add(fn, name, f"{node.name}.{fn.name}", 1)
    return found


def _set_params(defs, trees):
    """The set of qualname.param that some call in `trees` sets, by keyword
    or by position; a call is matched to every definition of its name."""
    hits = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            kws = {k.arg for k in call.keywords}
            for qualname, params in defs.get(name, []):
                hits.update(f"{qualname}.{p}" for p, i in params
                            if p in kws or None in kws or (i is not None and i < n_pos))
    return hits


def _unset_options(lib_trees, user_trees):
    """qualname.param for every parameter with a default that no call in
    `user_trees` sets."""
    defs = {}
    for tree in lib_trees:
        for name, entries in _defaults(tree).items():
            defs.setdefault(name, []).extend(entries)
    every = {f"{q}.{p}" for entries in defs.values() for q, params in entries
             for p, _ in params}
    return sorted(every - _set_params(defs, user_trees)), defs


def test_unset_options_detected():
    lib = ast.parse("def f(a, b=1, *, c=2):\n    pass\n"
                    "class K:\n    def __init__(self, x, y=0):\n        pass\n"
                    "    def m(self, z=1, w=2):\n        pass\n")
    user = ast.parse("f(0, c=3)\nK(1, 2)\nk.m(5)\n")
    assert _unset_options([lib], [user])[0] == ["K.m.w", "f.b"]
    assert _unset_options([lib], [ast.parse("f(*args)\nK(**kw)\n")])[0] == [
        "K.m.w", "K.m.z", "f.c"]


#: parameters that only tests set, each with the test (or test helper) that
#: sets it
TEST_HOOKS = {
    "main.argv": "test_cli.py::run_cli",
}


def test_no_unset_options_in_package():
    root = SRC.parent.parent
    lib = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    users = [ast.parse(p.read_text()) for d in ("src", "perfbench")
             for p in sorted((root / d).rglob("*.py"))]
    unset, defs = _unset_options(lib, users)
    assert sorted(TEST_HOOKS) == unset, "options no program call sets"
    for option, where in TEST_HOOKS.items():
        path, fn_name = where.split("::")
        tree = ast.parse((root / "tests" / path).read_text())
        fn = next(n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == fn_name)
        assert option in _set_params(defs, [fn]), f"{where} does not set {option}"


#: the faylab modules each module may import; modules not listed are free
IMPORT_LAYERS = {
    "theta": set(), "quartic": set(), "quasidet": set(), "report": set(),
    "rng": set(), "registry": set(), "curves": {"theta"},
    "kernels": {"theta", "curves"},
}


def _faylab_imports(tree):
    """The faylab modules a tree imports, relatively or as faylab.<name>,
    at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("faylab"):
                continue
            parts = (node.module or "").split(".")
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                found.add(parts[0])
            else:                       # from . import x / from faylab import x
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("faylab."))
    return found


def test_faylab_imports_detected():
    tree = ast.parse("import numpy as np\nfrom .theta import theta\n"
                     "def f():\n    from . import curves\n"
                     "    from faylab.kernels import h_values\n"
                     "    import faylab.rng\n")
    assert _faylab_imports(tree) == {"theta", "curves", "kernels", "rng"}


def test_import_layers():
    # quartic, quasidet and the plumbing modules stand alone; curves sits
    # on theta, and kernels on theta and curves
    hits = []
    for name, allowed in IMPORT_LAYERS.items():
        extra = _faylab_imports(ast.parse((SRC / f"{name}.py").read_text())) - allowed
        if extra:
            hits.append(f"{name} imports {sorted(extra)}")
    assert hits == [], "; ".join(hits)


#: exception classes too broad to catch: they hide faults of the program
BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _broad_excepts(tree):
    """Lines of every bare except, and of every except clause that names
    Exception or BaseException, alone or in a tuple."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(c, "attr", getattr(c, "id", None)) for c in caught if c}
            if node.type is None or names & BROAD_EXCEPTIONS:
                hits.append(node.lineno)
    return hits


def test_broad_excepts_detected():
    tree = ast.parse("try:\n    f()\nexcept Exception:\n    pass\n"
                     "try:\n    f()\nexcept:\n    pass\n"
                     "try:\n    f()\nexcept (ValueError, builtins.BaseException) as ex:\n"
                     "    pass\nexcept ValueError:\n    pass\n"
                     "try:\n    f()\nexcept (KeyError, TypeError):\n    pass\n"
                     "def g():\n    try:\n        f()\n    except BaseException:\n"
                     "        raise\n")
    assert _broad_excepts(tree) == [3, 7, 11, 22]


def test_no_broad_excepts_in_package():
    # a trial's failure is one of the classes the package raises; catching
    # every exception would turn a fault of the program into a record
    hits = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
            for line in _broad_excepts(ast.parse(p.read_text()))]
    assert hits == [], "broad except: " + ", ".join(hits)

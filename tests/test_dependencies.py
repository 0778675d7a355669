"""numpy is the package's only runtime dependency; scipy is a test oracle.
No module of the package imports a name it never uses, defines a private
top-level name that nothing in the package references or reads another
module's private name; every public top-level name is mentioned somewhere
besides its own definition, every "<name> must be ..." ValueError
comes from ``errors.check``, and every JSON document the package reads
passes through ``errors.read_json`` and ``errors.check_object``."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import lstmpc

IMPORT_ALL_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None          # any 'import scipy...' now raises ImportError
import lstmpc
for mod in pkgutil.iter_modules(lstmpc.__path__):
    importlib.import_module("lstmpc." + mod.name)
"""


def test_every_module_imports_without_scipy():
    src = str(pathlib.Path(lstmpc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", IMPORT_ALL_WITHOUT_SCIPY],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


MODULES = sorted(pathlib.Path(lstmpc.__file__).resolve().parent.glob("*.py"))


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _names_read(tree):
    """Every bare name and attribute name the module's code mentions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _trees().items():
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def _top_level_definitions(tree):
    """(statement, names it binds) for each top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield node, [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]


def test_every_private_top_level_name_is_referenced():
    trees = _trees()
    read = set().union(*map(_names_read, trees.values()))
    unreferenced = []
    for name, tree in trees.items():
        for _, defined in _top_level_definitions(tree):
            unreferenced += [f"{name}: {d}" for d in defined
                             if d.startswith("_") and not d.startswith("__") and d not in read]
    assert unreferenced == []


def _mentions(tree, skip=()):
    """Names the code reads, as a bare name, an attribute or a string
    constant (``monkeypatch.setattr(lstm, "step", ...)``), outside the
    statements in ``skip``."""
    inside = {id(n) for node in skip for n in ast.walk(node)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_top_level_name_is_mentioned():
    # a public name that lost its last caller (in the package, the tests,
    # the demos or the benchmark) is dead code, whatever its docstring says
    root = pathlib.Path(lstmpc.__file__).resolve().parents[2]
    others = [path for folder in ("tests", "demos", "perfbench")
              for path in sorted((root / folder).rglob("*.py"))]
    mentioned = set().union(*(_mentions(ast.parse(path.read_text())) for path in others))
    trees = _trees()
    in_module = {name: _mentions(tree) for name, tree in trees.items()}
    unmentioned = []
    for name, tree in trees.items():
        elsewhere = mentioned.union(*(seen for key, seen in in_module.items() if key != name))
        for node, defined in _top_level_definitions(tree):
            if public := [d for d in defined if not d.startswith("_")]:
                seen = elsewhere | _mentions(tree, skip=[node])
                unmentioned += [f"{name}: {d}" for d in public if d not in seen]
    assert unmentioned == []


def test_no_module_reads_another_modules_private_name():
    found = []
    for name, tree in _trees().items():
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                   for alias in node.names}
        found += [f"{name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not node.attr.startswith("__")]
    assert found == []


def test_every_must_be_value_error_comes_from_the_one_check():
    trees = _trees()
    helper = next(node for node in trees["errors.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "check")
    own = set(map(id, ast.walk(helper)))
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"):
                continue
            texts = [c.value for c in ast.walk(node.exc)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            if any(" must be " in t for t in texts):
                found.append((name, node.lineno, id(node) in own))
    assert [(name, line) for name, line, in_check in found if not in_check] == []
    assert [in_check for *_, in_check in found] == [True]


def _function(tree, name):
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _string(node):
    """The text of a string constant or f-string, each replacement field as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return ""


def test_every_json_document_passes_the_one_reader_and_object_check():
    # json.load and json.loads appear once, in errors.read_json, and no module
    # writes an "unknown ... fields" or "missing ... fields" message itself:
    # errors.check_object forms them from its parts
    trees = _trees()
    reader = set(map(id, ast.walk(_function(trees["errors.py"], "read_json"))))
    loads, messages = [], []
    for name, tree in trees.items():
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"):
                loads.append((name, node.lineno, id(node) in reader))
            elif id(node) not in docstrings and re.search(r"\b(unknown|missing)\b.*\bfields\b",
                                                          _string(node)):
                messages.append((name, node.lineno))
    assert [(name, line) for name, line, in_reader in loads if not in_reader] == []
    assert [in_reader for *_, in_reader in loads] == [True]
    assert messages == []


def _per_step_loops(function):
    """The innermost ``for`` loops of ``function``: those that run once per step."""
    loops = [node for node in ast.walk(function) if isinstance(node, ast.For)]
    return [loop for loop in loops
            if not any(isinstance(n, ast.For) for n in ast.walk(loop) if n is not loop)]


def test_kernel_step_loops_call_only_names_bound_before_them():
    # a per-step attribute lookup, operator or dispatcher costs each sweep's
    # steps about 5% of training: every operation in the loops of lstm._run
    # and lstm._adjoint is a call of a local name bound before the loop, and
    # lstm never reads np.dot
    tree = _trees()["lstm.py"]
    found = []
    for name in ("_run", "_adjoint"):
        function = _function(tree, name)
        loops = _per_step_loops(function)
        assert len(loops) == 1, name
        loop = loops[0]
        bound = {t.id for node in ast.walk(function) if isinstance(node, ast.Assign)
                 and node.lineno < loop.lineno for target in node.targets
                 for t in ast.walk(target) if isinstance(t, ast.Name)}
        body = [n for statement in loop.body for n in ast.walk(statement)]
        found += [f"{name}: line {n.lineno} reads .{n.attr}" for n in body
                  if isinstance(n, ast.Attribute)]
        found += [f"{name}: line {n.lineno} calls {ast.unparse(n.func)}" for n in body
                  if isinstance(n, ast.Call)
                  and not (isinstance(n.func, ast.Name) and n.func.id in bound)]
        found += [f"{name}: line {n.lineno} applies an operator" for n in body
                  if isinstance(n, (ast.AugAssign, ast.BinOp, ast.UnaryOp))]
    found += [f"line {n.lineno} reads np.dot" for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and n.attr == "dot"
              and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy")]
    assert found == []


GATE_FIELDS = {f"{stack}_{gate}" for stack in "WUb" for gate in "cfio"}


def test_gate_names_stay_at_the_weights_file():
    # the weights store their gates stacked, and the one constructor takes
    # the stacks: only the weights file names each gate's block (W_f ...
    # b_o, strings in lstm.MATRIX_FIELDS), so no module reads such an
    # attribute, passes such a keyword or takes such a parameter
    found = [f"{name}: line {node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in GATE_FIELDS
             or isinstance(node, (ast.keyword, ast.arg)) and node.arg in GATE_FIELDS]
    assert found == []


# the only functions in the package that build each workspace, by the
# qualified name of the function that calls its constructor
WORKSPACE_OWNERS = {
    "Workspace": {"mpc.FhocpWorkspace.__init__", "mpc.Controller.__init__", "harness.steps",
                  "refcalc.estimate_k_bar", "sysid.train", "sysid.evaluate_fit",
                  "lstm.rollout", "sysid.predict"},
    "FhocpWorkspace": {"mpc.Controller.__init__"},
}


def _calls_by_function(tree, prefix):
    """(qualified name of the innermost enclosing function or class, call
    node) for every call in the module; names start with ``prefix``."""
    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{child.name}"
            if isinstance(child, ast.Call):
                yield qualname, child
            yield from visit(child, inner)
    yield from visit(tree, prefix)


def test_sweep_buffers_are_built_by_their_owners_only():
    # a new caller that builds its own workspace would grow a second owner
    # of the buffers of a sweep or step: the controller's FHOCP and its
    # reference calculation run in one each, the closed loop's observer,
    # plant model and initial estimate in one, the K_bar grid in one,
    # training and FIT in one per sequence length, and the one-shot rollout
    # and prediction in one of their own
    built = {name: set() for name in WORKSPACE_OWNERS}
    for module, tree in _trees().items():
        for qualname, call in _calls_by_function(tree, module.removesuffix(".py")):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in built:
                built[name].add(qualname)
    assert built == WORKSPACE_OWNERS


def test_no_workspace_has_a_default():
    # a function or record given no workspace would build one of its own,
    # a second path beside the one its owner's workspace takes: every
    # parameter or dataclass field named workspace is required
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found += [f"{module}: line {node.lineno} {a.arg}" for a in defaulted
                          if a.arg == "workspace"]
            elif isinstance(node, ast.ClassDef):
                found += [f"{module}: line {n.lineno} {node.name}.workspace" for n in node.body
                          if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                          and n.target.id == "workspace" and n.value is not None
                          and not _required_field(n.value)]
    assert found == []


def _required_field(value):
    """Whether a dataclass field's value, ``field(...)`` without a default, is required."""
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and not any(k.arg in ("default", "default_factory") for k in value.keywords))


# the functions a control step runs, by module and qualified name
STEP_FUNCTIONS = {
    "mpc.py": ("Problem.evaluate", "Problem.qp_model", "_dense_qp", "solve_fhocp"),
    "refcalc.py": ("_track", "_residual", "_newton", "_cell_step", "_jacobian"),
    "lstm.py": ("Workspace.step", "Workspace.rollout", "Workspace.linearize",
                "Workspace.sensitivities", "_local_factors", "_step_jacobians"),
    "observer.py": ("observer_step",),
}


def _definition(tree, qualname):
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def test_control_step_applies_no_matmul_operator_or_reduction_method():
    # on the step's arrays of 5 to 21 entries, numpy's Python-level entry
    # points cost more than the arithmetic: products go through ndarray.dot
    # (or an explicit np.matmul where the output is strided or 3-D), exact
    # maxima through numerics.largest and numerics.magnitude on floats, and
    # sums through np.add.reduce, never through @, .max(), .min() or .sum()
    trees = _trees()
    found = []
    for module, names in STEP_FUNCTIONS.items():
        for qualname in names:
            for n in ast.walk(_definition(trees[module], qualname)):
                if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
                    found.append(f"{module} {qualname}: line {n.lineno} applies @")
                elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and n.func.attr in ("max", "min", "sum")):
                    found.append(f"{module} {qualname}: line {n.lineno} calls .{n.func.attr}()")
    assert found == []

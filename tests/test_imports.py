"""The package has no runtime dependencies: every absolute import in
``src/liederiv`` names a standard-library module."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from liederiv.exactfield import Frozen
from test_golden import write_certify_inputs

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liederiv"


def _absolute_imports():
    """(module file, line, top-level package) of every absolute import."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, node.lineno, n.split(".")[0]) for n in names)


def test_package_imports_only_the_standard_library():
    imports = list(_absolute_imports())
    assert imports
    assert [i for i in imports if i[2] not in sys.stdlib_module_names] == []


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize, and each
    # decorator execs its generated methods: the value types subclass
    # exactfield.Frozen and take its generic constructor instead
    assert [i for i in _absolute_imports() if i[2] == "dataclasses"] == []


def _classes():
    """(module, node, class) of every module-level class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"liederiv.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                yield path.stem, node, getattr(module, node.name)


def test_only_frozen_defines_the_immutability_hooks():
    # every immutable value type, Field included, inherits them
    hooks = [
        (module, node.name, hook)
        for module, node, cls in _classes()
        for hook in ("__setattr__", "__delattr__")
        if hook in vars(cls)
    ]
    assert hooks == [("exactfield", "Frozen", "__setattr__"), ("exactfield", "Frozen", "__delattr__")]


def test_no_record_writes_a_constructor_that_only_stores_its_fields():
    # Frozen's constructor stores one value per field; a subclass writes
    # its own only to check, derive or default values, so a body of
    # ``setfield(self, "name", param)`` calls alone is one too many
    storing = []
    for module, node, cls in _classes():
        if not issubclass(cls, Frozen):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                params = {a.arg for a in item.args.args}
                body = [s for s in item.body if not isinstance(getattr(s, "value", None), ast.Constant)]
                calls = [getattr(s, "value", None) for s in body]
                if all(
                    getattr(getattr(c, "func", None), "id", None) == "setfield"
                    and getattr(c.args[-1], "id", None) in params
                    for c in calls
                ):
                    storing.append(f"{module}.{node.name}")
    assert storing == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter, since pytest itself has loaded both
    script = (
        "import sys; bare = set(sys.modules); import liederiv.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-s", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_only_the_certifying_commands_load_the_certifier(tmp_path):
    # in a fresh interpreter: the import, the folds and an error exit leave
    # the certifier and poly uncompiled; certify loads both
    write_certify_inputs(tmp_path)
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import liederiv.cli as cli\n"
        "def loaded(code=None):\n"
        "    mods = [m for m in ('liederiv.poly', 'liederiv.certifier') if m in sys.modules]\n"
        "    return [code, mods]\n"
        "seen = [loaded()]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        seen.append(loaded(cli.main(argv)))\n"
        "print(json.dumps(seen))\n"
    )
    runs = [
        ["locder-replay", "--n", "3"],
        ["locder-random", "--n", "2"],
        ["der", str(tmp_path / "missing.json")],
        ["certify", str(tmp_path / "h1.json"), "--map", str(tmp_path / "h1_zz.json")],
    ]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-s", "-c", script, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    both = ["liederiv.poly", "liederiv.certifier"]
    assert json.loads(out.stdout) == [[None, []], [0, []], [0, []], [1, []], [0, both]]


# each module may import only modules earlier in this order, which keeps
# dersolve algebra-generic, the schrodinger module on top of the generic
# layers and the import graph acyclic
LAYERS = (
    "exactfield",
    "poly",
    "linalg",
    "liealg",
    "dersolve",
    "locder",
    "certifier",
    "schrodinger",
    "cli",
)


def test_relative_imports_follow_the_layer_order():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS) | {"__init__"}
    upward = []
    for pos, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [(name, t) for t in targets if t not in LAYERS[:pos]]
    assert upward == []


def test_only_exactfield_spells_a_field_tag():
    # elsewhere a field is one of the two Field objects and its tag is
    # read off it, so the tag format lives in exactfield alone
    spelled = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "exactfield":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spelled += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("Q", "Qi")
        ]
    assert spelled == []


def test_every_definition_is_named_elsewhere_in_the_package():
    # a module-level function or class, or a non-dunder method, that no
    # code in the package names (an ``__init__`` export counts) is dead
    # weight; a method overriding a standard-library base (argparse's
    # ``error``) is called by that base.  ``AsosShape.parameters`` is public
    # API with no caller left inside: ``asos_shape_check`` spans unit rows
    # read off ``AsosShape.entries``, the spec that ``parameters`` turns
    # into dense maps
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    unnamed = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, defs) and node.name not in named:
                unnamed.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(f"liederiv.{module}"), node.name)
            stdlib_bases = [b for b in cls.__mro__[1:] if not b.__module__.startswith("liederiv")]
            for item in node.body:
                if (
                    isinstance(item, defs)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in named
                    and not any(hasattr(b, item.name) for b in stdlib_bases)
                ):
                    unnamed.append(f"{module}.{node.name}.{item.name}")
    assert unnamed == ["schrodinger.AsosShape.parameters"]


def test_generic_layers_name_nothing_schrodinger():
    # the Schrodinger algebra, its basis order and its replay schedule live
    # in the schrodinger module alone; docstrings and comments may mention it
    named = []
    for name in ("exactfield", "poly", "linalg", "liealg", "dersolve", "locder", "certifier"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            elif isinstance(node, ast.alias):
                ident = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                ident = node.name
            else:
                continue
            if "schrodinger" in ident.lower():
                named.append((name, node.lineno, ident))
    assert named == []


def test_no_function_takes_both_an_algebra_and_its_der():
    # a DerivationSpace carries its algebra, so a function that took both
    # an algebra L and a Der could be handed the Der of another algebra
    both = []
    for name in ("locder", "certifier", "schrodinger"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if {"L", "der"} <= params:
                    both.append((name, node.lineno, node.name))
    assert both == []


def test_linalg_leaves_scalar_knowledge_to_the_field():
    # the echelon eliminates in integers through its Field's encode and
    # decode, so linalg needs no scalar type, no inverse and no type test
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, ast.alias):
            ident = node.name
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            calls = [x for x in (node.left, *node.comparators) if isinstance(x, ast.Call)]
            if any(getattr(x.func, "id", None) == "type" for x in calls):
                found.append((node.lineno, "type(...) is"))
            continue
        else:
            continue
        if ident in ("GaussianRational", "Fraction", "inv", "inverse"):
            found.append((node.lineno, ident))
    assert found == []


def test_locder_runs_on_the_shared_integer_kernel():
    # the fold and the certifier insert integer forms only, and form their
    # images only through linalg's MapIndex: neither reads the columns
    # of a map itself, and Delta's columns come from dersolve's one encoder
    # for a Matrix, encode_map, assigned to a name that a MapIndex takes
    # (the certifier reads Delta, the fold does not)
    for module in ("locder", "certifier"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        methods = [c.func.attr for c in calls if isinstance(c.func, ast.Attribute)]
        assert "insert" not in methods and "insert_integer" in methods, module
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "images" in attributes, module
        assert not attributes & {"columns", "sparse_columns"}, module
        names = {
            n.id
            for c in calls
            if getattr(c.func, "id", None) == "MapIndex"
            for n in ast.walk(c)
            if isinstance(n, ast.Name)
        }
        encoded = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and getattr(getattr(node.value, "func", None), "id", None) == "encode_map"
        ]
        assert all(any(getattr(t, "id", None) in names for t in n.targets) for n in encoded), module
        assert len(encoded) == sum(getattr(c.func, "id", None) == "encode_map" for c in calls)
        assert bool(encoded) == (module == "certifier"), module


def test_only_the_parser_and_the_label_map_build_a_matrix():
    # a map enters as a parsed Matrix (the CLI map files and the demo map);
    # inside, maps are sparse columns and their integer forms, and the one
    # schrodinger wrapper behind sigma, tau and AsosShape.parameters turns
    # label columns back into a Matrix for the public API
    built = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Matrix":
                    built.append((path.stem, getattr(node, "name", None)))
    assert sorted(built) == [
        ("cli", "_cmd_demo_heisenberg"),
        ("cli", "_parse_map"),
        ("schrodinger", "_label_map"),
    ]

import ast
import importlib.util
import pathlib
import sys

import heckecell

SRC = pathlib.Path(heckecell.__file__).parent


def test_no_assert_statements_in_library():
    # invariants must raise real exceptions: assert vanishes under python -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_library_imports_only_itself_and_the_standard_library():
    # the runtime is standard-library only; exact rational points
    # (fractions) belong to the alcove-walk oracle beside the tests
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                tops = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = {node.module.split(".")[0]}
            else:
                continue  # not an import, or relative: the package itself
            bad = {t for t in tops if t == "fractions" or t not in sys.stdlib_module_names}
            found += [f"{path.name}:{node.lineno} {t}" for t in sorted(bad - {"heckecell"})]
    assert not found, f"imports outside the package and the standard library: {found}"


def test_packed_format_stays_inside_laurent():
    # the packed fields of LaurentPoly (_v, _n, _m) are read and written in
    # laurent.py only; every other module goes through its methods
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_v", "_n", "_m"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, f"packed Laurent fields used outside laurent.py: {found}"


def _definitions(tree):
    """(name, first line, last line) of every function and class, and of
    every `self.<attr> =` assignment, in one parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.attr, node.lineno, node.lineno


def _uses(tree):
    """(name, line) of every name read, attribute read and string constant,
    outside `__slots__` assignments: declaring a slot is not a use of it, so
    a slot that is written but never read is found dead."""
    slots = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
             for n in ast.walk(node.value)}
    for node in ast.walk(tree):
        if id(node) in slots:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_library_definition_has_a_use():
    # code only the tests reach belongs beside the tests, not in the library.
    # The check is by name: a definition counts as used when its name is read
    # anywhere in src/ or bench/ outside its own definition, so a clash with
    # another name (paths.count and list.count, say) hides a dead definition.
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    uses = {}
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        for name, line in _uses(ast.parse(path.read_text(), filename=str(path))):
            uses.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in _definitions(ast.parse(path.read_text(), filename=str(path))):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language, not by name
            if not any(p != path or not first <= line <= last for p, line in uses.get(name, ())):
                dead.append(f"{path.name}:{first} {name}")
    assert not dead, f"library definitions nothing in src/ or bench/ uses: {dead}"


def test_every_traced_name_is_a_class_attribute():
    # bench/spans.py wraps each (class, attribute) of LAYERS in place; a
    # name deleted or moved off its class breaks traced runs, which only
    # the benchmark's own tests would otherwise notice
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{cls.__name__}.{attr}" for _, cls, attr, *_ in spans.LAYERS
               if attr not in cls.__dict__]
    assert spans.LAYERS and not missing, f"traced names not on their class: {missing}"

import ast
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

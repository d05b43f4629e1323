import ast
import pathlib

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

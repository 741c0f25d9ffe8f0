"""Count the code lines of Python files: lines that hold a token other
than a comment, a docstring or blank space.

    python tools/code_lines.py src/pdi_lab/*.py
    python tools/code_lines.py src/pdi_lab

print each file's count and the total; a directory stands for its *.py
files, in sorted order.
"""

import ast
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    with open(path, "rb") as fh:
        lines = {
            line
            for token in tokenize.tokenize(fh.readline) if token.type not in _LAYOUT
            for line in range(token.start[0], token.end[0] + 1)
        }
    return len(lines - docstrings)


def expand(args) -> list:
    """The files named by ``args``, each directory replaced by its *.py files."""
    files = []
    for arg in args:
        path = pathlib.Path(arg)
        files += sorted(map(str, path.glob("*.py"))) if path.is_dir() else [arg]
    return files


if __name__ == "__main__":
    counts = {path: code_lines(path) for path in expand(sys.argv[1:])}
    for path, count in counts.items():
        print(f"{count:6d} {path}")
    print(f"{sum(counts.values()):6d} total")

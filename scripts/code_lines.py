#!/usr/bin/env python3
"""Count the code lines of each module of src/tplroute, then their total.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring. Run as python3 scripts/code_lines.py;
it takes no options.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tplroute"


def code_lines(text: str) -> int:
    """The number of code lines in one module's source text."""
    skipped = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                skipped.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skipped)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path.read_text())
        total += lines
        print(f"{lines:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

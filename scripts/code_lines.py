#!/usr/bin/env python3
"""Count the code and prose lines of each module of src/tplroute, then their totals.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring. A prose line is any other non-blank
line: a docstring or comment line.

    python3 scripts/code_lines.py                            # report only
    python3 scripts/code_lines.py --check scripts/line_budget.json

With --check, FILE maps each module's file name to its budget,
{"code": N, "prose": M}; a module it does not name has a budget of 0.
The script then names every module over either budget and exits 1 if
there is one. A change that must grow a module raises its budget in the
same diff; one that shrinks a module lowers it.
"""

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tplroute"


def _code_line_numbers(text: str) -> set[int]:
    """The numbers of the code lines in one module's source text."""
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
    return code - skipped


def code_lines(text: str) -> int:
    """The number of code lines in one module's source text."""
    return len(_code_line_numbers(text))


def prose_lines(text: str) -> int:
    """The number of prose (docstring and comment) lines in one module's source text."""
    code = _code_line_numbers(text)
    return sum(1 for number, line in enumerate(text.splitlines(), 1) if line.strip() and number not in code)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--check", metavar="FILE", type=Path, help="JSON of per-module code and prose budgets")
    args = p.parse_args(argv)
    budgets = json.loads(args.check.read_text()) if args.check else None
    total_code = total_prose = 0
    over = []
    print("  code   prose  module")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        code, prose = code_lines(text), prose_lines(text)
        total_code += code
        total_prose += prose
        print(f"{code:6d}  {prose:6d}  {path.name}")
        if budgets is not None:
            budget = budgets.get(path.name, {"code": 0, "prose": 0})
            if code > budget["code"] or prose > budget["prose"]:
                over.append(f"{path.name}: {code} code, {prose} prose lines over its budget of "
                            f"{budget['code']} and {budget['prose']}")
    print(f"{total_code:6d}  {total_prose:6d}  total")
    for line in over:
        print(line)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())

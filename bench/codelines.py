#!/usr/bin/env python3
"""Source size of the package: code lines per module, their total, and all lines.

Run from anywhere in a checkout:

    python3 bench/codelines.py

A code line is a line that holds a token other than a comment, so blank
lines, comment-only lines and docstrings are left out. The script prints
the code lines of each module of ``src/spregimes`` and their total, then
the total line count that ``wc -l src/spregimes/*.py`` reports.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold a token other than a comment, docstrings left out."""
    docs = {line for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for line in range(node.lineno, node.end_lineno + 1)}
    code = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type not in SKIP for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docs)


def main():
    total = lines = 0
    for path in sorted((ROOT / "src" / "spregimes").glob("*.py")):
        text = path.read_text()
        count = code_lines(text)
        total += count
        lines += text.count("\n")
        print(f"{count:8d} {path.relative_to(ROOT)}")
    print(f"{total:8d} code lines")
    print(f"{lines:8d} lines in total (wc -l)")


if __name__ == "__main__":
    main()

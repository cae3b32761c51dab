#!/usr/bin/env python3
"""Lines and code lines of each `src/aaacq` module of one or more source trees.

For each tree it prints every module's lines (as `wc -l` counts them) and
code lines, then the tree's totals.  A code line holds a token other than a
comment, a docstring or blank space: it is counted with `tokenize`, and the
docstrings (the first statement of a module, class or function when it is a
string) are found with `ast`.  A token that spans lines, such as a long
string, counts on each of its lines.

    python3 scripts/src_lines.py ../parent .
"""

import ast
import glob
import io
import os
import sys
import tokenize

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code, as the module docstring says."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _BLANK or tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    trees = sys.argv[1:] if argv is None else list(argv)
    if not trees:
        raise SystemExit("usage: src_lines.py TREE...")
    for tree in trees:
        total = code = 0
        for path in sorted(glob.glob(os.path.join(tree, "src", "aaacq", "*.py"))):
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            lines, kept = source.count("\n"), code_lines(source)
            total, code = total + lines, code + kept
            print(f"{path}: {lines} lines, {kept} code lines")
        print(f"{tree}: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

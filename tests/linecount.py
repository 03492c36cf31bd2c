"""Count the source lines of a package's modules by kind.

    python tests/linecount.py src/nystromlab

prints one row per module and a total: docstring, comment, blank and
code lines.  Every physical line has one kind, read from its ``tokenize``
tokens in this order:

* code, if any token on it is code;
* docstring, if it lies in a docstring: a statement made only of string
  literals (a module's, class's or function's first statement, or any
  other bare string);
* comment, if it holds a comment;
* blank otherwise.

So a line of code that ends in a comment is code, as is every line of a
multi-line string that is not a docstring; a blank line inside a
docstring is docstring.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")

# The later kind wins where tokens of two kinds share a line.
_PRIORITY = {"blank": 0, "comment": 1, "docstring": 2, "code": 3}
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def classify(source: str) -> list[str]:
    """The kind of each line of source, in order."""
    kinds = ["blank"] * len(source.splitlines())

    def mark(token, kind):
        for row in range(token.start[0], token.end[0] + 1):
            if row <= len(kinds) and _PRIORITY[kind] > _PRIORITY[kinds[row - 1]]:
                kinds[row - 1] = kind

    statement = []  # the tokens of the logical line so far
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            mark(token, "comment")
        elif token.type not in _LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            kind = "docstring" if all(t.type == tokenize.STRING for t in statement) else "code"
            for t in statement:
                mark(t, kind)
            statement = []
    return kinds


def count(path: Path) -> dict[str, int]:
    """Lines of each kind in the module at path."""
    kinds = classify(path.read_text(encoding="utf-8"))
    return {kind: kinds.count(kind) for kind in KINDS}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/linecount.py PACKAGE_DIR", file=sys.stderr)
        return 2
    rows = [(path.name, count(path)) for path in sorted(Path(argv[0]).glob("*.py"))]
    total = {kind: sum(c[kind] for _, c in rows) for kind in KINDS}
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in (*KINDS, "lines")))
    for name, c in [*rows, ("total", total)]:
        print(f"{name:<16}" + "".join(f"{c[k]:>10}" for k in KINDS) + f"{sum(c.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of the `cubex` package.

A code line is a line that holds a token other than a comment or a
docstring (a string that stands alone as a statement), so blank lines,
comments and docstrings are left out.  A token that spans several
lines, such as a long string literal, counts on each of them.

    python tools/code_lines.py    # one line per module, then the total
"""

from __future__ import annotations

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubex"

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path):
    """The number of code lines in one Python source file."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    previous = tokenize.NEWLINE
    for i, tok in enumerate(tokens):
        following = tokens[i + 1].type if i + 1 < len(tokens) else None
        docstring = (
            tok.type == tokenize.STRING
            and previous in STATEMENT_START | {tokenize.ENCODING}
            and following in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if tok.type not in SKIPPED and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.type
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()

"""Count the code lines of each module of ``src/polyurn``.

A code line holds at least one token that is not a comment, a docstring or
a line break. A docstring is a string literal that forms a whole statement.
The script prints one ``<count> <module>`` line per module, then the total:

    python tools/code_lines.py [SOURCE_DIR]

``SOURCE_DIR`` defaults to the ``src/polyurn`` next to this script.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
#: Tokens after which a new statement starts.
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a code token."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring, or another bare string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "polyurn"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of Python modules, per module and in total.

A code line holds at least one token that is not part of a docstring, a
comment or whitespace; blank lines, comment lines and the lines a
docstring spans do not count.  A docstring is a string literal that is a
statement by itself.

    python3 tools/code_lines.py src/solarinvest

Each argument is a ``.py`` file or a directory, searched recursively.
"""

import sys
import tokenize
from pathlib import Path

# tokens that start a statement; with ENDMARKER, none marks a code line
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of code lines in the module at ``path``."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _STATEMENT_START or tok.type == tokenize.ENDMARKER:
            continue
        # a string that starts a statement and ends it is a docstring
        if (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    paths = []
    for arg in argv or ["."]:
        root = Path(arg)
        paths += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

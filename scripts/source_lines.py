"""Physical and code lines of each module of a package, counted the same way every time.

A code line holds a token that is not a comment or a docstring.  A
docstring here is any statement that is only a string: a module, class or
function docstring, or the string under an assignment that documents it.
A token that spans lines (a multi-line string in an expression, say) makes
each line it spans a code line.  Blank lines, comment lines and docstring
lines are physical lines only.

    python scripts/source_lines.py [directory]    # default: src/bendercuts

prints one `module physical code` line per `*.py` file, in name order, and
then the totals.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """How many lines of the source text hold a token that is not a comment or a docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "bendercuts")
    total_physical = total_code = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        physical, code = len(text.splitlines()), code_lines(text)
        print(f"{path.name} {physical} {code}")
        total_physical += physical
        total_code += code
    print(f"total {total_physical} {total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

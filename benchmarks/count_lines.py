"""Count code lines of the Python modules in a directory.

A line counts when it holds a token other than a comment, outside
docstrings; a docstring is a string that forms a statement on its own.

Usage: python benchmarks/count_lines.py SRC_DIR
"""
import sys
import tokenize
from pathlib import Path

# tokens that hold no code; NEWLINE is kept to find statements
_SKIP = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _SKIP]
    ends = [i for i, t in enumerate(tokens) if t.type == tokenize.NEWLINE]
    lines = set()
    for start, end in zip([-1] + ends, ends):
        statement = tokens[start + 1 : end]
        if len(statement) == 1 and statement[0].type == tokenize.STRING:
            continue  # a docstring
        for tok in statement:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


counts = {p.stem: code_lines(p) for p in sorted(Path(sys.argv[1]).glob("*.py"))}
for name, n in sorted(counts.items(), key=lambda item: -item[1]):
    print(f"{n:6d}  {name}")
print(f"{sum(counts.values()):6d}  total")

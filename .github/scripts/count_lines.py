"""Print the counted lines of each module under src/pillarmatch and tests/,
and the number of flags each subcommand of the command line takes.

A counted line holds code or part of a docstring: a line that ``tokenize``
finds any token on other than a comment, a line break or indentation. Blank
lines and comment-only lines do not count; every line a multi-line string
spans does. Run from anywhere in the repository:

    python .github/scripts/count_lines.py [directory ...]

The directories default to src/pillarmatch and tests. A subcommand's flags
are the options ``cli.build_parser()`` gives it, ``--help`` aside; reading
them imports the package from src/. The script only prints; it gates nothing.
"""
import argparse
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_DIRS = ("src/pillarmatch", "tests")
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counted_lines(path: Path) -> int:
    lines = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in UNCOUNTED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(dirs) -> None:
    overall = 0
    for name in dirs:
        total = 0
        print(name)
        for path in sorted((ROOT / name).glob("*.py")):
            count = counted_lines(path)
            total += count
            print(f"  {path.name:<28}{count:>6}")
        print(f"  {'total':<28}{total:>6}")
        overall += total
    print(f"{'all':<30}{overall:>6}")
    print("flags")
    for command, count in flag_counts().items():
        print(f"  {command:<28}{count:>6}")


def flag_counts() -> dict:
    """The number of options, ``--help`` aside, of each subcommand."""
    sys.path.insert(0, str(ROOT / "src"))
    from pillarmatch.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {command: sum(1 for a in parser._actions if a.option_strings and a.dest != "help")
            for command, parser in sub.choices.items()}


if __name__ == "__main__":
    main(sys.argv[1:] or DEFAULT_DIRS)

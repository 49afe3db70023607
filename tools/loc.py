"""Count code lines per module under src/halfint, and their total, with
each module's compile() peak.

A code line is a non-blank line that is not a comment and does not lie
in a module, class or function docstring; lines of any other string
count.  The compile peak is the most memory, in kB, that tracemalloc
sees allocated while `compile()` turns the module's source into a code
object.  A process that imports halfint without cached bytecode
compiles every module it loads, and its peak memory is that of its
largest single compile, so the module marked `<- largest` sets the
high-water of such a job.  Standard library only:

    python3 tools/loc.py

When stdout closes early (`... | head -3`), it exits 3 with one line on
stderr.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
import tracemalloc
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halfint"

# tokens that carry no code: a line with only these is blank or a comment
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def compile_peak_kb(source: str, filename: str) -> int:
    """The tracemalloc peak of compiling one module's source, in kB."""
    tracemalloc.start()
    try:
        compile(source, filename, "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1] // 1024
    finally:
        tracemalloc.stop()


def main() -> int:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, code_lines(source), compile_peak_kb(source, str(path))))
    largest = max(peak for _, _, peak in rows)
    try:
        print(f"{'module':16} {'lines':>5} {'compile kB':>10}")
        for name, count, peak in rows:
            mark = "  <- largest" if peak == largest else ""
            print(f"{name:16} {count:5} {peak:10}{mark}")
        print(f"{'total':16} {sum(count for _, count, _ in rows):5}")
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the interpreter's own flush at exit would fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

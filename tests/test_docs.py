"""The documentation holds: the README's library tour runs as written and
prints what its comments say, and no docstring or comment of the
package quotes a host timing, which would go stale with the next
change of code or host."""

from __future__ import annotations

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

import quditprod

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted(Path(quditprod.__file__).parent.glob("*.py"))

# A number with a time unit (1 us, 0.1 ms, 2 s) or a numeric arrow
# (40 -> 9), the form of a before/after measurement.
TIMING = re.compile(r"(?<![\w.])\d+(?:\.\d+)?\s?(?:us|µs|ms|s)\b|(?<![\w.])\d+(?:\.\d+)?\s*->\s*\d")


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_tour_prints_what_its_comments_say() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_tour(), str(README), "exec"), {"__name__": "readme_tour"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    n_phys, k, stab_weight = map(int, lines[0].split())
    assert (n_phys, k) == (18, 2) and stab_weight <= 6
    assert lines[2] == "1024"


def _timing_lines(path: Path) -> list[str]:
    """The lines of the module's docstrings (module, class and function)
    and comments that match ``TIMING``, as ``name:line``."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    found = set()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            for i in range(first.lineno, first.end_lineno + 1):
                if TIMING.search(source[i - 1]):
                    found.add(i)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and TIMING.search(tok.string):
            found.add(tok.start[0])
    return [f"{path.name}:{i}: {source[i - 1].strip()}" for i in sorted(found)]


def test_timing_pattern_flags_measurements_only() -> None:
    for quoted in ("about 1 us per call", "46 ms against 57 ms", "0.1 ms", "takes 2 s",
                   "3x3  40 -> 9", "2.70 -> 0.77", "15 µs"):
        assert TIMING.search(quoted), quoted
    for plain in ("2**16 codes", "int16 for D <= 181", "GF(3)^5", "p**(2j + 2) <= rows",
                  "the 150-cell rule", "k -> k + 1", "rows 0..i", "uint8s"):
        assert not TIMING.search(plain), plain


def test_sources_quote_no_host_timings() -> None:
    assert len(SOURCES) > 1
    found = [line for path in SOURCES for line in _timing_lines(path)]
    assert found == []

"""A mutation probe of ``src/semindex``: the one-site changes no test notices.

Run it by hand from any directory; pytest does not collect it:

    python3 tests/mutation_probe.py              # all nine modules, about 10 minutes on 2 vCPUs
    python3 tests/mutation_probe.py index.py     # some modules
    python3 tests/mutation_probe.py --list       # print the mutants without running them

A mutant changes one site of one module: a comparison negated (``==``/``!=``,
``<``/``>=``, ``>``/``<=``, ``in``/``not in``, ``is``/``is not``), ``+``/``-``
or ``*``/``/`` swapped (``+=`` and the like too), ``and``/``or`` swapped,
``not x`` made ``x``, ``raise`` made ``pass``, or an ``if …: raise`` guard (no
``else``, its body ending in ``raise``) deleted. Only the operator's own
characters change, and a deleted statement leaves its lines blank, so every
other line keeps its number.

Each mutant is written into a fresh temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, and the module's own test files plus ``test_cli.py`` and
``test_readers.py`` run there with ``-x``, a fixed hypothesis seed and a fixed
hash seed; at most two pytest processes run at once, and nothing is written
into the checkout. A mutant those tests pass is run again against tier-1
without ``tests/test_endtoend.py`` and this file's own test, which reads
``src/``. One that passes that too is a survivor, printed as
``module.py:line kind``, unless ``EQUIVALENT`` lists it with the reason no
output can tell it apart. The exit status is 1 if any survivor is unlisted
or a listed mutant was killed.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semindex"
MODULES = (
    "_util.py", "cli.py", "config.py", "engine.py", "evalkit.py", "index.py", "lexicon.py", "semantics.py",
    "textnorm.py",
)
# A module's own test files; test_cli.py and test_readers.py run for every module.
OWN_TESTS = {
    "_util.py": ["test_util.py"],
    "cli.py": ["test_api.py"],
    "config.py": ["test_api.py"],
    "engine.py": ["test_engine.py", "test_roundtrip.py"],
    "evalkit.py": ["test_evalkit.py"],
    "index.py": ["test_index.py", "test_roundtrip.py"],
    "lexicon.py": ["test_lexicon.py"],
    "semantics.py": ["test_semantics.py"],
    "textnorm.py": ["test_textnorm.py"],
}
SHARED_TESTS = ["test_cli.py", "test_readers.py"]
JOBS = 2
# Address-space cap of each pytest process, so a runaway mutant fails alone.
MEMORY_CAP = 2 << 30

# (module, function, kind, the mutated line) -> why no output can tell the
# mutant from the original. For a deleted statement the line is the original's.
EQUIVALENT = {
    ("index.py", "Index.retrieve", "> -> <=", "if len(ordinals) <= len(scores):"):
        "only the fold's direction changes, and a two-operand float sum is commutative",
    ("index.py", "Index.retrieve", "* -> /", "if depth is not None and _SELECT_RATIO / depth < len(scores):"):
        "the head selection keeps every document the full sort ranks within the depth",
    ("index.py", "build_indexes", "or -> and",
     'cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() and 1'):
        "the branch runs only where os.sched_getaffinity is missing, which Linux has",
    ("index.py", "build_indexes", "+ -> -", "chunk = max(1, (len(texts) - workers * 4 - 1) // (workers * 4))"):
        "pool.map keeps input order whatever the chunk size",
    ("index.py", "build_indexes", "- -> +", "chunk = max(1, (len(texts) + workers * 4 + 1) // (workers * 4))"):
        "pool.map keeps input order whatever the chunk size",
}

_COMPARE = {
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Lt: ("<", ">="), ast.GtE: (">=", "<"),
    ast.Gt: (">", "<="), ast.LtE: ("<=", ">"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
}
_ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
_BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


class Mutant(NamedTuple):
    module: str
    line: int
    function: str
    kind: str
    text: str  # the mutated line, whitespace collapsed; the original for a deleted statement
    edits: tuple[tuple[int, int, str], ...]  # (start, end, replacement) in the module's source, ascending

    @property
    def key(self) -> tuple[str, str, str, str]:
        return self.module, self.function, self.kind, self.text

    def apply(self, source: str) -> str:
        return _apply(source, self.edits)


def _apply(source: str, edits) -> str:
    for start, end, replacement in reversed(edits):
        source = source[:start] + replacement + source[end:]
    return source


class _Source:
    """A module's text with the character offset of each ``ast`` position (UTF-8 byte columns)."""

    def __init__(self, text: str):
        self.text = text
        self.lines = text.split("\n")  # as ast numbers them: str.splitlines also splits at U+2028 and the like
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line) + 1)

    def offset(self, line: int, col: int) -> int:
        return self.starts[line - 1] + len(self.lines[line - 1].encode("utf-8")[:col].decode("utf-8"))

    def start(self, node: ast.AST) -> int:
        return self.offset(node.lineno, node.col_offset)

    def end(self, node: ast.AST) -> int:
        return self.offset(node.end_lineno, node.end_col_offset)

    def operator(self, text: str, after: ast.AST, before: ast.AST) -> tuple[int, int]:
        """The span of operator ``text`` between two operands; comments there are blanked first."""
        start, stop = self.end(after), self.start(before)
        between = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), self.text[start:stop])
        # Only the operator, brackets, blanks and comments stand between two operands.
        found = re.search(r"\s+".join(map(re.escape, text.split())), between)
        if found is None:
            raise ValueError(f"no {text!r} between offsets {start} and {stop}")
        return start + found.start(), start + found.end()


def mutants(module: str, text: str | None = None) -> list[Mutant]:
    """Every mutant of ``module`` (a file name in ``src/semindex``), in source order."""
    src = _Source(PACKAGE.joinpath(module).read_text(encoding="utf-8") if text is None else text)
    found: list[Mutant] = []

    def add(node: ast.AST, function: str, kind: str, edits: list[tuple[int, int, str]], deleted: bool = False) -> None:
        first, last = node.lineno, node.end_lineno
        if deleted:
            shown = src.lines[first - 1]
        else:
            lines = _apply(src.text, edits)[src.starts[first - 1] :]
            shown = " ".join(lines.split("\n")[: last - first + 1])
        found.append(Mutant(module, node.lineno, function, kind, " ".join(shown.split()), tuple(edits)))

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                old, new = _COMPARE[type(op)]
                add(node, function, f"{old} -> {new}", [(*src.operator(old, left, right), new)])
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            old, new = _ARITHMETIC[type(node.op)]
            add(node, function, f"{old} -> {new}", [(*src.operator(old, node.left, node.right), new)])
        elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITHMETIC:
            old, new = (sign + "=" for sign in _ARITHMETIC[type(node.op)])
            add(node, function, f"{old} -> {new}", [(*src.operator(old, node.target, node.value), new)])
        elif isinstance(node, ast.BoolOp):
            old, new = _BOOLEAN[type(node.op)]
            pairs = zip(node.values, node.values[1:])
            add(node, function, f"{old} -> {new}", [(*src.operator(old, a, b), new) for a, b in pairs])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start, _ = re.compile(r"not\b").match(src.text, src.start(node)).span()
            add(node, function, "not x -> x", [(start, start + 3, "")])
        elif isinstance(node, ast.Raise):
            add(node, function, "raise -> pass", [_blanked(src, node, "pass")], deleted=True)
        if isinstance(node, ast.If) and not node.orelse and isinstance(node.body[-1], ast.Raise):
            elif_ = src.text.startswith("elif", src.start(node))
            add(node, function, "guard deleted", [_blanked(src, node, "" if elif_ else "pass")], deleted=True)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(src.text), "<module>")
    return found


def _blanked(src: _Source, node: ast.stmt, replacement: str) -> tuple[int, int, str]:
    """An edit that puts ``replacement`` in place of a statement and keeps its line breaks."""
    return src.start(node), src.end(node), replacement + "\n" * (node.end_lineno - node.lineno)


def _pytest(tree: Path, args: list[str], timeout: float) -> str:
    """Run pytest in ``tree``: ``passed``, ``failed`` or ``timed out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    launch = (
        "import resource, sys, pytest; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP}, {MEMORY_CAP})); "
        "sys.exit(pytest.main(sys.argv[1:]))"
    )
    command = [sys.executable, "-c", launch, "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args]
    with subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    ) as process:
        try:
            code = process.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)  # the build's pool workers too
            process.wait()
            return "timed out"
    if code in (4, 5):  # a usage error, or no test collected: the probe's own fault
        raise RuntimeError(f"pytest {' '.join(args)} in {tree} exited {code}")
    return "passed" if code == 0 else "failed"


def _in_copy(mutant: Mutant | None, args: list[str], timeout: float) -> str:
    """Run pytest in a fresh copy of the checkout's src/, tests/ and pyproject.toml, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="semindex-mutant-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        if mutant is not None:
            path = tree / "src" / "semindex" / mutant.module
            path.write_text(mutant.apply(path.read_text(encoding="utf-8")), encoding="utf-8")
        return _pytest(tree, args, timeout)


def _timed(args: list[str]) -> float:
    """The seconds the unmutated tests take; they must pass, or no kill means anything."""
    began = time.monotonic()
    if _in_copy(None, args, timeout=1800) != "passed":
        raise SystemExit(f"the unmutated tree fails pytest {' '.join(args)}")
    return time.monotonic() - began


def _test_args(module: str) -> list[str]:
    return [f"tests/{name}" for name in dict.fromkeys(OWN_TESTS[module] + SHARED_TESTS)]


def probe(modules: list[str]) -> int:
    todo = [m for module in modules for m in mutants(module)]
    print(f"{len(todo)} mutants in {', '.join(modules)}", file=sys.stderr)
    # test_mutation_probe.py reads src/ to check this file's table, which a mutant changes.
    tier1 = ["tests", "--ignore=tests/test_endtoend.py", "--ignore=tests/test_mutation_probe.py"]
    runs = {module: _test_args(module) for module in modules}
    timeouts: dict[str, float] = {}

    def settle(numbered: tuple[int, Mutant]) -> str:
        n, mutant = numbered
        outcome = _in_copy(mutant, runs[mutant.module], timeouts[mutant.module])
        if outcome == "passed":
            outcome = _in_copy(mutant, tier1, timeouts["tier-1"])
        verdict = "survived" if outcome == "passed" else "killed"
        print(f"[{n}/{len(todo)}] {mutant.module}:{mutant.line} {mutant.kind}: {verdict}", file=sys.stderr)
        return verdict

    with ThreadPoolExecutor(JOBS) as pool:
        # A mutant may hang: its tests get five times what the unmutated ones take, and a minute.
        runs["tier-1"] = tier1
        timeouts.update(zip(runs, (60 + 5 * seconds for seconds in pool.map(_timed, runs.values()))))
        verdicts = list(pool.map(settle, enumerate(todo, 1)))

    status = 0
    print(f"{'module':<14}{'mutants':>8}{'killed':>8}{'equivalent':>12}{'survived':>10}")
    for module in modules:
        mine = [(m, v) for m, v in zip(todo, verdicts) if m.module == module]
        killed = sum(v == "killed" for _, v in mine)
        equivalent = sum(v == "survived" and m.key in EQUIVALENT for m, v in mine)
        print(f"{module:<14}{len(mine):>8}{killed:>8}{equivalent:>12}{len(mine) - killed - equivalent:>10}")
    for mutant, verdict in zip(todo, verdicts):
        if verdict == "survived" and mutant.key not in EQUIVALENT:
            print(f"{mutant.module}:{mutant.line} {mutant.kind}  ({mutant.function}: {mutant.text})")
            status = 1
        elif verdict == "killed" and mutant.key in EQUIVALENT:
            print(f"{mutant.module}:{mutant.line} {mutant.kind} is killed but listed as equivalent")
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("modules", nargs="*", metavar="module.py", help=f"default: all of {', '.join(MODULES)}")
    parser.add_argument("--list", action="store_true", help="print the mutants without running them")
    args = parser.parse_args(argv)
    modules = args.modules or list(MODULES)
    if set(modules) - set(MODULES):
        parser.error(f"not a module of src/semindex: {', '.join(sorted(set(modules) - set(MODULES)))}")
    if args.list:
        for mutant in (m for module in modules for m in mutants(module)):
            print(f"{mutant.module}:{mutant.line} {mutant.kind}  ({mutant.function}: {mutant.text})")
        return 0
    return probe(modules)


if __name__ == "__main__":
    sys.exit(main())

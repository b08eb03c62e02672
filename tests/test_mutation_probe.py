"""The mutants of ``tests/mutation_probe.py`` and its table of equivalent ones.

The probe itself runs by hand; these checks start no process.
"""

from __future__ import annotations

import ast
from collections import Counter

import mutation_probe as probe

SAMPLE = '''def f(a, b):
    x = "اثم" + a  # é before the operator: ast columns count UTF-8 bytes
    if not (a < b and
            b in x):  # a comment with + and or
        raise ValueError(a)
    x *= b
    return x
'''


def test_each_kind_changes_only_its_operator():
    assert [(m.line, m.function, m.kind, m.text) for m in probe.mutants("sample.py", SAMPLE)] == [
        (2, "f", "+ -> -", 'x = "اثم" - a # é before the operator: ast columns count UTF-8 bytes'),
        (3, "f", "guard deleted", "if not (a < b and"),
        (3, "f", "not x -> x", "if (a < b and b in x): # a comment with + and or"),
        (3, "f", "and -> or", "if not (a < b or b in x): # a comment with + and or"),
        (3, "f", "< -> >=", "if not (a >= b and"),
        (4, "f", "in -> not in", "b not in x): # a comment with + and or"),
        (5, "f", "raise -> pass", "raise ValueError(a)"),
        (6, "f", "*= -> /=", "x /= b"),
    ]


def test_a_deleted_guard_keeps_every_line_number():
    (deleted,) = (m for m in probe.mutants("sample.py", SAMPLE) if m.kind == "guard deleted")
    assert deleted.apply(SAMPLE).splitlines()[1:] == [
        '    x = "اثم" + a  # é before the operator: ast columns count UTF-8 bytes', "    pass", "", "", "    x *= b",
        "    return x",
    ]


def test_every_mutant_compiles_to_other_code_with_the_same_lines():
    # Each mutant's edits lie within one top-level statement, which is compiled
    # alone: the whole module, once per mutant, takes seconds.
    for module in probe.MODULES:
        source = probe.PACKAGE.joinpath(module).read_text(encoding="utf-8")
        spans = [(min(s.lineno for s in [node, *getattr(node, "decorator_list", ())]) - 1, node.end_lineno)
                 for node in ast.parse(source).body]
        for mutant in probe.mutants(module):
            mutated = mutant.apply(source)
            assert mutated.count("\n") == source.count("\n"), mutant[:4]
            first, last = next(span for span in spans if span[0] < mutant.line <= span[1])
            before, after = ("".join(text.splitlines(keepends=True)[first:last]) for text in (source, mutated))
            assert compile(after, module, "exec", dont_inherit=True) != compile(before, module, "exec", dont_inherit=True), mutant[:4]


def test_each_equivalent_entry_names_exactly_one_site():
    sites = Counter(m.key for module in probe.MODULES for m in probe.mutants(module))
    assert {key: sites[key] for key in probe.EQUIVALENT} == dict.fromkeys(probe.EQUIVALENT, 1)


def test_the_probe_covers_every_module_with_its_own_tests():
    assert sorted(p.name for p in probe.PACKAGE.glob("*.py") if p.name != "__init__.py") == list(probe.MODULES)
    assert probe.OWN_TESTS.keys() == set(probe.MODULES)
    for name in {name for names in probe.OWN_TESTS.values() for name in names} | set(probe.SHARED_TESTS):
        assert probe.ROOT.joinpath("tests", name).is_file(), name

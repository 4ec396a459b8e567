"""The package's public surface, and the literal pool its property tests
draw from.

A public top-level function or class of `src/mixvol` must be reached: read
by another part of the package, by the benchmark's files under
`perfbench/` (which are only read here), or by the acceptance criteria in
`test_acceptance.py`.  The numeric literals that hypothesis mines from the
`mixvol` modules (see `conftest.py`) are pinned, so a change that adds or
drops one, and with it the property tests' draws, names it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

from hypothesis.internal.constants_ast import constants_from_module

import mixvol

ROOT = Path(__file__).resolve().parent.parent

#: Public names that nothing above reaches and that stay: test references
#: build on `convex_parts` and `translate`, and `d_grid` is the tests' grid
#: oracle.
UNREACHED = {"convex_parts", "translate", "d_grid"}

#: The floats and ints of hypothesis's literal pool over the `mixvol` modules.
POOL_FLOATS = {-1e-09, 0.0, 1e-30, 2.220446049250313e-16, 1e-12, 1e-09, 0.001, 0.006,
               0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 30.0, 64.0}
POOL_INTS = {360, 480, 2024, 4096, 100000}


def _reads(nodes, strings=False) -> set[str]:
    """The names the nodes load and the attributes they read, with string
    constants too (as `getattr` takes them) if `strings`."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_is_reached():
    """Each public top-level function or class of `src/mixvol` is read by
    another definition of its module, by a module that imports it by name,
    as an attribute by any module, or by name in `perfbench/*.py` or
    `test_acceptance.py`; or it is in UNREACHED."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src/mixvol").glob("*.py"))}
    outside = set().union(
        *(_reads([ast.parse(p.read_text())], strings=True) for p in (ROOT / "perfbench").glob("*.py")),
        _reads([ast.parse((ROOT / "tests/test_acceptance.py").read_text())]))
    attributes = {n.attr for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    public, unreached = set(), []
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            public.add(d.name)
            importers = [t for t in trees.values() for n in ast.walk(t)
                         if isinstance(n, ast.ImportFrom) and n.module == module
                         and d.name in (a.name for a in n.names)]
            if not (d.name in outside or d.name in attributes or d.name in UNREACHED
                    or d.name in _reads([n for n in tree.body if n is not d])
                    or any(d.name in _reads([t]) for t in importers)):
                unreached.append(f"{module}.{d.name}")
    assert unreached == []
    assert UNREACHED <= public


def test_hypothesis_literal_pool():
    modules = [mixvol] + [importlib.import_module(f"mixvol.{m.name}")
                          for m in pkgutil.iter_modules(mixvol.__path__)]
    floats = set().union(*(constants_from_module(m).floats for m in modules))
    ints = set().union(*(constants_from_module(m).integers for m in modules))
    assert {"came": floats - POOL_FLOATS, "went": POOL_FLOATS - floats} == \
        {"came": set(), "went": set()}
    assert {"came": ints - POOL_INTS, "went": POOL_INTS - ints} == {"came": set(), "went": set()}

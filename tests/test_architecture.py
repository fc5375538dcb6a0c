"""rhflow's design rules and module layering, checked on its source.

Every src/rhflow/*.py is parsed once, with ast (and tokenize, for its
comments), and three things are checked:

* Four design rules (RULES): no scenario-id branches, state-kind checks only
  in geometry and runio, run-file names only in runio, FlowConfig built only
  in flow and oracles.  Each rule first applies its regex line by line to the
  file's text, as a grep would, so every form such a grep catches fails here.
  Then it checks the syntax tree, where names are resolved through
  `import ... as`, `from ... import ... as`, module attributes and
  module-local aliases, and strings are read as assembled from constants.
* One table of the rhflow modules each module may import (IMPORTS), and of
  the outside packages only some modules may import (OUTSIDE).  Imports
  inside functions count.  A module without a row fails.
* Reachability: every top-level function and class of src/ is named by code
  reached from rhflow.__all__, cli.main, a name the README or
  perfbench/*.py mentions, or a module-level statement.

Each checker is also run on short sources that it must reject, among them
forms that the line regexes alone let through (test_*_rejects).
"""
import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import rhflow
from rhflow.oracles import SCENARIO_IDS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "rhflow").glob("*.py"))}

KINDS = {"WarpedState", "HomogeneousState"}
TRACKED = KINDS | {"FlowConfig"}  # the classes the resolver follows through aliases


class Module:
    """One parsed source file: its text, syntax tree and name bindings."""

    def __init__(self, name: str, text: str):
        self.name, self.text, self.tree = name, text, ast.parse(text)
        self.imports = {}  # local name -> the dotted name it was imported as
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    self.imports[alias.asname or target] = target
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = f"{_origin(node)}.{alias.name}"
        self.aliases = {}  # local name -> the tracked classes it was assigned
        for _ in range(2):  # an alias of an alias
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
                    targets, value = [node.target], node.value
                else:
                    continue
                found = self.classes(value)
                for target in targets:
                    if isinstance(target, ast.Name) and found:
                        self.aliases[target.id] = found

    def resolve(self, node) -> str | None:
        """The dotted name a name or attribute chain refers to; a name the
        module does not import is its own (rhflow.<module>.<name>)."""
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, f"rhflow.{self.name}.{node.id}")
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return base and f"{base}.{node.attr}"
        return None

    def classes(self, node) -> set[str]:
        """The TRACKED rhflow classes an expression names: one name, module
        attribute or alias, or a tuple or | union of them."""
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return set().union(*map(self.classes, node.elts))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self.classes(node.left) | self.classes(node.right)
        if isinstance(node, ast.Name) and node.id in self.aliases:
            return self.aliases[node.id]
        package, _, last = (self.resolve(node) or "").rpartition(".")
        return {last} & TRACKED if package.split(".")[0] == "rhflow" else set()


def _origin(node: ast.ImportFrom) -> str:
    """The absolute module a from-import reads from."""
    if node.level == 0:
        return node.module
    return "rhflow" + (f".{node.module}" if node.module else "")


def _text(node) -> str | None:
    """The string an expression spells from constants (literals, +, f-string
    parts), with \\0 for each part computed at run time; None if it is not
    a string expression."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.JoinedStr):
        return "".join((_text(part.value) if isinstance(part, ast.FormattedValue)
                        else _text(part)) or "\0" for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _text(node.left), _text(node.right)
        if left is not None or right is not None:
            return (left or "\0") + (right or "\0")
    return None


def _assigned(mod: Module, name: str):
    """The value of the module-level assignment `name = ...`, or None."""
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == [name]:
            return stmt.value
    return None


def _strings(mod: Module):
    """(node, text) of every string expression of the module, docstrings too."""
    for node in ast.walk(mod.tree):
        text = _text(node)
        if text is not None:
            yield node, text


# ---------------------------------------------------------------------------
# the four design rules; each check yields (line, what) for every violation


def _scenario_id_uses(mod: Module):
    # Which checks a scenario gets is data (verification._SUITE, keyed by the
    # registry's ids), so no module compares or matches a scenario's id, and
    # an id is spelled only by the registry and as a key of _SUITE.
    for node in ast.walk(mod.tree):
        operands = ([node.left, *node.comparators] if isinstance(node, ast.Compare)
                    else [node.subject] if isinstance(node, ast.Match) else [])
        if any(isinstance(x, ast.Attribute) and x.attr == "id" for x in operands):
            yield node.lineno, "compares a scenario id"
    if mod.name == "oracles":
        return
    suite = _assigned(mod, "_SUITE") if mod.name == "verification" else None
    suite_keys = {id(key) for key in suite.keys} if isinstance(suite, ast.Dict) else set()
    for node, text in _strings(mod):
        if text in SCENARIO_IDS and id(node) not in suite_keys:
            yield node.lineno, f"spells the scenario id {text!r}"


def _state_kind_checks(mod: Module):
    # The warped/homogeneous choice is made in geometry (the rate law and the
    # CFL bound are state methods there) and in runio's file format; every
    # other module, a new one too, uses the shared state interface and never
    # asks which kind it holds.  flow, which integrates both kinds, does not
    # even name them.
    for node in ast.walk(mod.tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            named = mod.classes(node.args[1])
        elif isinstance(node, ast.Compare):
            named = set().union(*map(mod.classes, [node.left, *node.comparators]))
        elif isinstance(node, ast.MatchClass):
            named = mod.classes(node.cls)
        elif mod.name == "flow" and isinstance(node, (ast.Name, ast.Attribute)):
            named = mod.classes(node)
        elif mod.name == "flow" and isinstance(node, ast.alias):
            named = {node.name}
        else:
            continue
        if named & KINDS:
            yield node.lineno, f"asks for the state kind {sorted(named & KINDS)[0]}"
    if mod.name == "flow":
        for k, line in enumerate(mod.text.splitlines(), 1):
            if re.search(r"WarpedState|HomogeneousState", line):
                yield k, "names a state kind"


RUN_FILE_NAMES = re.compile(r"config\.yaml|series\.jsonl|checkpoint\.npz|manifest\.json|states_")


def _spells_run_file(text: str) -> bool:
    """A run file's name, the snapshot file pattern, or snapshots as a
    quoted name or a path component."""
    return bool(RUN_FILE_NAMES.search(text)) or text.strip() == "snapshots" or any(
        "snapshots" in word.split("/") for word in text.split() if "/" in word)


def _run_file_names(mod: Module):
    # The layout of a run directory is runio's: no other module spells a run
    # file, the snapshot directory or the snapshot file pattern, in code,
    # docstrings or comments.
    for node, text in _strings(mod):
        if _spells_run_file(text):
            yield node.lineno, f"spells a run file: {text!r}"
    for tok in tokenize.generate_tokens(io.StringIO(mod.text).readline):
        if tok.type == tokenize.COMMENT and _spells_run_file(tok.string.lstrip("#")):
            yield tok.start[0], f"spells a run file: {tok.string!r}"


def _flow_config_calls(mod: Module):
    # A registry scenario becomes a run's config and initial state in one
    # place, oracles.scenario_run (runio.parse_config goes through it); no
    # other module builds a FlowConfig, under any name.
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call) and "FlowConfig" in mod.classes(node.func):
            yield node.lineno, "builds a FlowConfig"


# rule: (modules it does not restrict, the rule's line regex, its syntax check)
RULES = {
    "scenario_ids": ((), r"\.id (==|in) ", _scenario_id_uses),
    "state_kinds": (("geometry", "runio"), r"isinstance\([^)]*(WarpedState|HomogeneousState)",
                    _state_kind_checks),
    "run_files": (("runio",),
                  r"config\.yaml|series\.jsonl|checkpoint\.npz|manifest\.json|states_"
                  r"|[\"'/]snapshots[\"'/]", _run_file_names),
    "flow_config": (("flow", "oracles"), r"FlowConfig\(", _flow_config_calls),
}


def grep_hits(rule: str, mod: Module) -> list[str]:
    """The lines the rule's regex matches, as a line-based grep reads them."""
    exempt, pattern, _ = RULES[rule]
    if mod.name in exempt:
        return []
    return [f"{mod.name}.py:{k}: {line.strip()}"
            for k, line in enumerate(mod.text.splitlines(), 1) if re.search(pattern, line)]


def rule_violations(rule: str, mod: Module) -> list[str]:
    exempt, _, check = RULES[rule]
    if mod.name in exempt:
        return []
    return grep_hits(rule, mod) + [f"{mod.name}.py:{line}: {what}" for line, what in check(mod)]


# ---------------------------------------------------------------------------
# the import layering

# The rhflow modules each module may import; "__init__" is the package itself
# (for __version__).  The package imports only what it re-exports (__all__).
IMPORTS = {
    "geometry": set(),
    "analysis": {"geometry"},
    "christoffel": {"geometry"},
    "flow": {"analysis", "geometry"},
    "oracles": {"flow", "geometry"},
    "convergence": {"analysis", "flow", "oracles"},
    "verification": {"analysis", "convergence", "flow", "oracles"},
    "runio": {"__init__", "analysis", "flow", "geometry", "oracles"},
    "cli": {"__init__", "convergence", "flow", "oracles", "runio", "verification"},
    "__init__": {"analysis", "christoffel", "flow", "geometry", "oracles"},
}
# Outside packages that only the given modules may import: the run directory
# is runio's (yaml for its config files, os and shutil for its files), and
# scipy is a test-only dependency (the tests' independent oracles).
OUTSIDE = {"yaml": {"runio"}, "os": {"runio"}, "shutil": {"runio"}, "scipy": set()}


def import_violations(mod: Module) -> list[str]:
    if mod.name not in IMPORTS:
        return [f"{mod.name}.py: no row in IMPORTS"]
    found = []
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            targets = [f"{_origin(node)}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            top, _, rest = target.partition(".")
            head = rest.partition(".")[0]
            if target.endswith(".*"):
                found.append(f"{mod.name}.py:{node.lineno}: star import from {target[:-2]}")
            elif top == "rhflow":
                used = head if head in SOURCES else "__init__"
                if used != mod.name and used not in IMPORTS[mod.name]:
                    found.append(f"{mod.name}.py:{node.lineno}: imports rhflow {used}")
            elif top in OUTSIDE and mod.name not in OUTSIDE[top]:
                found.append(f"{mod.name}.py:{node.lineno}: imports {top}")
    if mod.name == "__init__":
        exported = {elt.value for elt in getattr(_assigned(mod, "__all__"), "elts", ())}
        found += [f"__init__.py: imports {name} without re-exporting it"
                  for name in mod.imports if name not in exported]
    return found


# ---------------------------------------------------------------------------
# reachability


def unreached(modules, roots) -> list[str]:
    """module.name of each top-level function and class that no reached code
    names.  Reached are the roots, every module-level statement other than an
    import, and the whole of each reached def (name by name, over all
    modules: a name reaches every top-level def of that name)."""
    defs, pending = {}, []
    for mod in modules:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((mod.name, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                pending.append(stmt)
    reached = set()

    def reach(name):
        if name not in reached:
            reached.add(name)
            pending.extend(stmt for _, stmt in defs.get(name, ()))

    for name in roots:
        reach(name)
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name):
                reach(node.id)
            elif isinstance(node, ast.Attribute):
                reach(node.attr)
    return sorted(f"{mod}.{name}" for name, entries in defs.items() if name not in reached
                  for mod, _ in entries)


def _words(path: Path) -> set[str]:
    return set(re.findall(r"[A-Za-z_]\w*", path.read_text()))


# ---------------------------------------------------------------------------
# the tree

MODULES = [Module(name, text) for name, text in SOURCES.items()]


@pytest.mark.parametrize("rule", RULES)
def test_design_rule_holds(rule):
    assert [v for mod in MODULES for v in rule_violations(rule, mod)] == []


def test_imports_follow_the_layering():
    assert [v for mod in MODULES for v in import_violations(mod)] == []


def test_every_top_level_name_is_reached():
    roots = {*rhflow.__all__, "main", *_words(ROOT / "README.md"),
             *(word for path in (ROOT / "perfbench").glob("*.py") for word in _words(path))}
    assert unreached(MODULES, roots) == []


# ---------------------------------------------------------------------------
# each checker rejects what it exists to reject

# (rule, source of analysis.py, whether the rule's line regex catches it)
PROBES = [
    ("state_kinds", "from .geometry import WarpedState\nisinstance(state, WarpedState)\n", True),
    ("run_files", 'NAME = "config.yaml"\n', True),
    ("flow_config", "from .flow import FlowConfig\ncfg = FlowConfig(n=4)\n", True),
    ("scenario_ids", 'if scn.id == "torus_list":\n    pass\n', True),
    ("state_kinds", "from .geometry import WarpedState\nisinstance(\n    state, WarpedState)\n",
     False),
    ("flow_config", "from .flow import FlowConfig as _C\ncfg = _C(n=4)\n", False),
    ("run_files", 'NAME = "series" + ".jsonl"\n', False),
    ("scenario_ids", 'if "torus_list" == scn.id:\n    pass\n', False),
    # a module attribute: the regex matches the line, the syntax check resolves g
    ("state_kinds", "import rhflow.geometry as g\nisinstance(s, g.HomogeneousState)\n", True),
]


@pytest.mark.parametrize("rule, source, grep_catches", PROBES)
def test_design_rule_rejects(rule, source, grep_catches):
    mod = Module("analysis", source)
    assert bool(grep_hits(rule, mod)) == grep_catches
    assert list(RULES[rule][2](mod))  # the syntax check alone catches every probe


@pytest.mark.parametrize("name, source", [
    ("analysis", "import yaml\n"),
    ("analysis", "def f():\n    from scipy.integrate import quad\n"),
    ("runio", "import scipy\n"),
    ("geometry", "from . import flow\n"),
    ("analysis", "from rhflow.cli import main\n"),
    ("flow", "from .geometry import *\n"),
    ("__init__", "from .runio import load_config\n__all__ = ['load_config']\n"),
    ("__init__", "from .geometry import Grid\n__all__ = []\n"),
    ("plugins", "import numpy\n"),
])
def test_import_table_rejects(name, source):
    assert import_violations(Module(name, source))


def test_reachability_lists_what_nothing_reaches():
    mod = Module("analysis", "def used():\n    return helper()\n\ndef helper():\n    pass\n\n"
                             "def orphan():\n    return used()\n\nX = [helper]\n")
    assert unreached([mod], {"used"}) == ["analysis.orphan"]
    assert unreached([mod], set()) == ["analysis.orphan", "analysis.used"]

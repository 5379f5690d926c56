"""The dead-code gate: no library code lives for its tests alone.

Two checks, each a function of source text so that a test can feed it a
module of its own:
- reachability: the package's entry points run under `sys.setprofile`, and
  every function, method and lambda defined in `src/banditlab`, nested ones
  included, must be entered by one of them or stand in `NOT_ENTERED` with
  its reason. A method counts only when its own code runs, so a dead one
  that shares a live one's name is found; a lambda is known by its line and
  column, so each of several on one line is found.
- reads: every attribute a class stores as `self.X` must be loaded as
  `self.X` in that class, or as `<obj>.X` elsewhere in `src/` or `bench/`;
  every dataclass and namedtuple field must be loaded as an attribute.
"""
import ast
import dis
import importlib.util
import sys
import types
from contextlib import contextmanager
from pathlib import Path

import pytest

import banditlab
from banditlab import cli, convex, harness

SRC = Path(banditlab.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# definitions no entry point enters, each with its reason
NOT_ENTERED = {
    "harness._choice": "builds a key's parser when the key tables are made, at import",
    "harness._list": "builds a key's parser when the key tables are made, at import",
    "harness._osgd": "binds the osgd policies' runners when `_POLICIES` is made, at import",
    "harness.RegretReport.from_dict": "bench/run.py reads each JSON report back through it",
    "env.ReplicaDraws._refill": "only a lockstep run past 4096 doubles per replica reads "
                                "a second block",
}


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def definitions(text: str) -> dict:
    """(first line, name) -> qualified name of each function and method the
    module text defines, and (line, column) -> qualified name of each
    lambda, nested ones included; the first line is the one a code object
    starts on, a decorator's if it has one."""
    found = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first, child.name] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Lambda):
                name = f"<lambda {child.lineno}:{child.col_offset}>"
                found[child.lineno, child.col_offset] = prefix + name
                visit(child, f"{prefix}{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(text), "")
    return found


def _code_identity(code) -> tuple:
    """What tells one lambda's code from another's: two compiles of one text
    give equal identities."""
    return code.co_firstlineno, code.co_qualname, tuple(code.co_positions())


def lambda_places(text: str) -> dict:
    """The identity of each lambda's code in the module text -> the lambda's
    (line, column), read off the instruction of the enclosing code that
    loads it."""
    places = {}

    def visit(code) -> None:
        for instruction in dis.get_instructions(code):
            inner = instruction.argval
            if isinstance(inner, types.CodeType):
                if inner.co_name == "<lambda>":
                    at = instruction.positions
                    places[_code_identity(inner)] = at.lineno, at.col_offset
                visit(inner)

    visit(compile(text, "<module>", "exec"))
    return places


@contextmanager
def entered_code():
    """A set, filled while the block runs, of every code object entered."""
    codes = set()
    record = codes.add
    previous = sys.getprofile()
    # every event's frame is entered code: a call's own, or the caller of a C function
    sys.setprofile(lambda frame, event, arg: record(frame.f_code))
    try:
        yield codes
    finally:
        sys.setprofile(previous)


def unentered(paths, codes: set) -> list:
    """`module.qualified.name` of each definition in the files `paths` that
    none of the code objects `codes` belongs to."""
    where = {name: str(Path(name).resolve()) for name in {c.co_filename for c in codes}}
    texts = {str(path.resolve()): path.read_text() for path in map(Path, paths)}
    places = {file: lambda_places(text) for file, text in texts.items()}
    entered = set()
    for c in codes:
        file = where[c.co_filename]
        if c.co_name != "<lambda>":
            entered.add((file, c.co_firstlineno, c.co_name))
        elif file in places:
            entered.add((file, *places[file][_code_identity(c)]))
    missed = []
    for path in map(Path, paths):
        file = str(path.resolve())
        missed += [f"{path.stem}.{name}" for key, name in definitions(texts[file]).items()
                   if (file, *key) not in entered]
    return missed


def _class_attributes(cls: ast.ClassDef):
    """The nodes of a class body, nested classes' bodies left out."""
    stack = list(cls.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.ClassDef):
            stack.extend(ast.iter_child_nodes(node))


def _self_attribute(node, ctx) -> str | None:
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx) \
            and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _fields(node) -> tuple[str, list] | None:
    """(name, fields) of a dataclass or of a `namedtuple(...)` assignment."""
    if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list):
        return node.name, [s.target.id for s in node.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
            and ast.unparse(node.value.func).endswith("namedtuple"):
        return node.targets[0].id, ast.literal_eval(node.value.args[1]).replace(",", " ").split()
    return None


def unread(checked: dict, readers: dict) -> list:
    """`module.Class.X` for each attribute that a class of the `checked`
    texts (by module name) stores as `self.X` but never loads as `self.X`,
    and that no text of `checked` or `readers` loads as `<obj>.X`; and for
    each dataclass or namedtuple field that no text loads as an attribute."""
    trees = {name: ast.parse(text) for name, text in {**readers, **checked}.items()}
    loaded_elsewhere, loaded = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
                if _self_attribute(node, ast.Load) is None:
                    loaded_elsewhere.add(node.attr)
    found = []
    for module in checked:
        for node in ast.walk(trees[module]):
            fields = _fields(node)
            if fields is not None:
                found += [f"{module}.{fields[0]}.{f}" for f in fields[1] if f not in loaded]
            if not isinstance(node, ast.ClassDef):
                continue
            body = list(_class_attributes(node))
            stored = {a for n in body if (a := _self_attribute(n, ast.Store))}
            read = {a for n in body if (a := _self_attribute(n, ast.Load))}
            found += [f"{module}.{node.name}.{a}"
                      for a in sorted(stored - read - loaded_elsewhere)]
    return found


# ---------------------------------------------------------------------------
# the package's entry points
# ---------------------------------------------------------------------------


def _run_entry_points(tmp: Path) -> None:
    """Every way in: each golden case at its own replica count and at one
    above every `narrow_width`, so that both batch forms play; each CLI
    subcommand (`run` and `sweep` write every format, `selftest` runs every
    property suite); an inline-losses config, an exp4 config at its default
    gamma = 0, whose eta is scheduled, a one-point osgd config of each loss
    family, and a csv config of each kind that reads one; and each bad
    config and bad csv of the harness tests."""
    from test_engine import CASES, _config as case_config, _ini
    from test_harness import _BAD_CSVS, _BAD_VALUES, _config

    # no width grows with K, so each is widest at one arm
    wide = 1 + max(cls.narrow_width(1) for module in _modules()
                   for cls in vars(module).values() if hasattr(cls, "narrow_width"))
    for case in CASES.values():
        for replicas in sorted({case[5], wide}):
            harness.run_experiment(case_config(*case[:5], replicas, *case[6:]))

    config = case_config(*CASES["ucb-stochastic-overlays"][:4], 50, 2, 1, ["ucb"])
    config["output"]["dir"] = str(tmp)
    ini = tmp / "run.ini"
    ini.write_text(_ini(config))
    for fmt in harness.RENDERERS:
        assert cli.main(["run", "--config", str(ini), "--format", fmt, "--assert-bounds"]) == 0
    assert cli.main(["sweep", "--config", str(ini), "--param", "experiment.horizon",
                     "--values", "20, 30", "--assert-bounds"]) == 0
    assert cli.main(["bound", "ucb", "alpha=2.5", "gaps=0.1:0.2", "n=100"]) == 0
    assert cli.main(["bound", "exp3", "n=100"]) == 2
    assert cli.main(["oracle", "--horizon", "3", "--replicas", "50"]) == 0
    assert cli.main(["selftest"]) == 0

    losses = ";".join(["0.2, 0.7, 0.5"] * 10)
    harness.run_experiment(_config(policy="exp3", policy_params={}, env_kind="oblivious",
                                   env_params={"losses": losses}, overlays=["exp3"],
                                   horizon=10, replicas=2))
    harness.run_experiment(_config(policy="exp4", policy_params={}, env_kind="contextual",
                                   env_params={"k": "3"}, overlays=["exp4"], horizon=10,
                                   replicas=2))
    # the golden cases run osgd on the linear and quadratic families, and
    # the one-point mode alone reads a family's loss bound L
    for family in convex.FAMILIES:
        harness.run_experiment(_config(policy="osgd-1pt", policy_params={}, env_kind="convex",
                                       env_params={"family": family, "d": "2"}, overlays=[],
                                       horizon=20, replicas=2))
    csvs = [("exp3", {}, "oblivious", {}, "0.2,0.7\n" * 5),
            ("sexp3", {}, "contextual", {"k": "2"}, "a,0.1,0.9\nb,0.5,0.5\n" * 3),
            ("banditron", {"gamma": "0.2"}, "multiclass", {"k": "2", "d": "2"},
             "1,0,0\n0,1,1\n" * 3)]
    for policy, params, kind, env, text in csvs:
        path = tmp / f"{kind}.csv"
        path.write_text(text)
        harness.run_experiment(_config(policy=policy, policy_params=params, env_kind=kind,
                                       env_params={**env, "csv": str(path)}, overlays=[],
                                       horizon=5, replicas=2))

    bad = [_config(policy=policy, policy_params=params, env_kind=kind, env_params=env,
                   overlays=overlays, horizon=horizon)
           for policy, params, kind, env, overlays, _, horizon in
           (p.values for p in _BAD_VALUES)]
    for name, (text, policy, params, kind, env, _) in _BAD_CSVS.items():
        path = tmp / f"bad-{name}.csv"
        if text is not None:
            path.write_text(text)
        bad.append(_config(policy=policy, policy_params=params, env_kind=kind,
                           env_params={**env, "csv": str(path)}, overlays=[], horizon=3))
    for config in bad:
        with pytest.raises(harness.ConfigError):
            harness.run_experiment(config)


def _modules() -> list:
    """Every imported module of the package."""
    return [module for name, module in sorted(sys.modules.items())
            if name.startswith("banditlab.")]


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_every_definition_is_entered_by_an_entry_point(tmp_path):
    # a cached function is entered only on a miss, so every cache starts empty
    for module in _modules():
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()
    with entered_code() as entered:
        _run_entry_points(tmp_path)
    missed = unentered(sorted(SRC.glob("*.py")), entered)
    assert sorted(set(missed) - set(NOT_ENTERED)) == []
    # an allowlisted definition that an entry point now enters comes off the list
    assert sorted(set(NOT_ENTERED) - set(missed)) == []


def test_every_stored_attribute_and_field_is_read():
    checked = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {f"bench.{path.stem}": path.read_text() for path in sorted(BENCH.glob("*.py"))}
    assert unread(checked, readers) == []


# an uncalled method that shares a live one's name, an uncalled lambda on
# a called one's line, an unread dataclass field, and a stored round counter
# that nothing reads
SYNTHETIC = """
from dataclasses import dataclass


@dataclass
class Spec:
    rate: float
    label: str


class Live:
    def __init__(self):
        self.total = 0.0
        self.t = 0

    def update(self, x):
        self.total += x
        self.t += 1
        return self.total


class Dead:
    def update(self, x):
        return x


SCALE = (lambda x: 2.0 * x, lambda x: 3.0 * x)


def run():
    spec = Spec(0.5, "half")
    return Live().update(SCALE[0](spec.rate) / 2.0)
"""


def test_the_gate_reports_each_kind_of_dead_code(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with entered_code() as entered:
        assert module.run() == 0.5
    assert unentered([path], entered) == ["synthetic.Dead.update", "synthetic.<lambda 27:28>"]
    assert unread({"synthetic": SYNTHETIC}, {}) == ["synthetic.Spec.label", "synthetic.Live.t"]

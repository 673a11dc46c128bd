"""Tooling gate: only ``repro/compiler.py`` builds a compile pipeline.

An AST walk over ``src/repro`` (no import of the package under test, no
dependency) lists every module that *calls* one of the compile-stage
entry points.  ISSUE 23 collapsed six spellings of the flow into
``NewCompiler.front``/``back``; a seventh — a helper that lowers, runs
passes and generates code on its own, as ``backends.py`` used to — shows
up here as a module that is not on the list.

The same kind of walk keeps the lazy DFA's row format private to
``prefilter/lazydfa.py``, keeps one step-down site in its matcher,
keeps the instruction dispatch of the matchers in the kernel's step
table, keeps worker processes in the scan supervisor, and keeps
deleted subsystems deleted.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: entry point -> the modules allowed to call it.
ALLOWED = {
    "lower_to_cicero": {"compiler.py"},
    "generate_program": {"compiler.py"},
    "pipeline_from_names": {"compiler.py"},
    # The one constructor call is pipeline_from_names' own.
    "PassManager": {"ir/pass_manager.py"},
    "pattern_to_regex_dialect": {
        "compiler.py",
        # Build a module and stop — no pipeline runs on it there:
        "fuzz/generators.py",  # ModuleGenerator seeds IR-level fuzz cases
        "dialects/regex/from_ast.py",  # parse-and-convert convenience
    },
}


def called_names(tree: ast.AST):
    """Names of everything ``tree`` calls (``f(...)`` and ``x.f(...)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            function = node.func
            if isinstance(function, ast.Name):
                yield function.id
            elif isinstance(function, ast.Attribute):
                yield function.attr


def callers():
    found = {name: set() for name in ALLOWED}
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in called_names(tree):
            if name in found:
                found[name].add(path.relative_to(SOURCE).as_posix())
    return found


def test_compile_stages_are_called_from_one_module():
    assert callers() == ALLOWED


def test_no_module_imports_a_tuner():
    """ISSUE 24 deleted the pass-order tuner; nothing may grow it back."""
    gone = "tuning"
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                names.append(getattr(node, "module", None) or "")
                assert not any(gone in name for name in names), path
    assert importlib.util.find_spec(f"repro.{gone}") is None


def imported_modules(path: Path, source=None):
    """Absolute names of every module ``path`` (or ``source`` placed
    there) imports, relative imports resolved against its package;
    ``from .x import y`` counts as both ``pkg.x`` and ``pkg.x.y``."""
    package = ["repro", *path.relative_to(SOURCE).parent.parts]
    if source is None:
        source = path.read_text()
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


#: The bench-history drift gate and the compile degradation ladder, both
#: deleted.  The first name is split so that a grep of the tree for the
#: deleted module's name stays empty.
DELETED_MODULES = ("repro.observability.bench" "history", "repro.runtime.degrade")


@pytest.mark.parametrize("gone", DELETED_MODULES)
def test_no_module_imports_a_deleted_subsystem(gone):
    for path in sorted(SOURCE.rglob("*.py")):
        assert gone not in set(imported_modules(path)), path
    assert importlib.util.find_spec(gone) is None


@pytest.mark.parametrize(
    "where, line",
    [
        ("api.py", "from .runtime.degrade import x"),
        ("runtime/__init__.py", "from .degrade import x"),
        ("runtime/__init__.py", "from . import degrade"),
        ("cli.py", "import repro.runtime.degrade"),
        ("engine/core.py", "from ..runtime.degrade import x"),
    ],
)
def test_the_walk_sees_every_spelling_of_an_import(where, line):
    assert "repro.runtime.degrade" in set(
        imported_modules(SOURCE / where, line + "\n")
    )


def test_the_walk_sees_a_pasted_back_half():
    # The body of the deleted ``backends.program_from_regex_module``.
    shadow = ast.parse(
        "def program_from_regex_module(module, pattern, options):\n"
        "    cicero_module = lower_to_cicero(module)\n"
        "    lowlevel = PassManager(verify_each=False)\n"
        "    lowlevel.add(JumpSimplificationPass())\n"
        "    lowlevel.run(cicero_module)\n"
        "    return codegen.generate_program(cicero_module.body.operations[0])\n"
    )
    assert {"lower_to_cicero", "PassManager", "generate_program"} <= set(
        called_names(shadow)
    )


#: The lazy DFA's row format: the mask -> row dict, the entry row, the
#: walk with its miss path and the transition sentinels; and the names of
#: the id-indexed representation it replaced (state masks, end-of-input
#: flags, ``_build_transition``), so pasting that back is caught too.
#: Other modules go through ``LazyDFA.run``/``walk``.
DFA_INTERNALS = {
    "_rows", "_entry_row", "_walk", "_UNBUILT", "_MATCHED", "_DEAD",
    "_states", "_accept_end", "_build_transition",
}


def dfa_internals_named(tree: ast.AST):
    """Every ``x._rows``-style read and ``_UNBUILT``-style name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DFA_INTERNALS:
            yield node.attr
        elif isinstance(node, ast.Name) and node.id in DFA_INTERNALS:
            yield node.id
        elif isinstance(node, ast.alias) and node.name in DFA_INTERNALS:
            yield node.name


def test_only_the_lazy_dfa_reads_its_rows():
    readers = {
        path.relative_to(SOURCE).as_posix()
        for path in sorted(SOURCE.rglob("*.py"))
        if any(dfa_internals_named(ast.parse(path.read_text(), str(path))))
    }
    assert readers == {"prefilter/lazydfa.py"}


def test_the_walk_sees_a_pasted_back_dfa_walk():
    # The deleted ``StreamingMatcher._feed_dfa``, abridged.
    shadow = ast.parse(
        "def _feed_dfa(self, data):\n"
        "    dfa = self._dfa\n"
        "    rows = dfa._rows\n"
        "    build = dfa._build_transition\n"
        "    translated = data.translate(dfa._class_table)\n"
        "    next_id = rows[state_id][translated[index]]\n"
        "    if next_id == -3:\n"
        "        next_id = build(state_id, byte_class)\n"
        "    self.state.frontier = mask_pcs(dfa._states[state_id])\n"
    )
    assert {"_rows", "_build_transition", "_states"} <= set(
        dfa_internals_named(shadow)
    )


def test_the_walk_sees_a_pasted_back_row_walk():
    # ``LazyDFA._walk``'s warm loop, copied into another module.
    shadow = ast.parse(
        "def walk(dfa, data, mask):\n"
        "    row = dfa._rows[mask]\n"
        "    home = dfa._entry_row\n"
        "    for byte_class in data:\n"
        "        next_row = row[byte_class]\n"
        "        if next_row is _UNBUILT:\n"
        "            return dfa._walk(data, row, None)\n"
        "        row = next_row\n"
    )
    assert {"_rows", "_entry_row", "_UNBUILT", "_walk"} <= set(
        dfa_internals_named(shadow)
    )


#: The consuming and byte-conditioned opcodes the step table encodes.
#: Under these packages only the table's construction and fill name
#: them; every matcher executes the filled table.
STEP_OPCODES = {"MATCH_ANY", "NOT_MATCH", "_MATCH_ANY", "_NOT_MATCH"}
MATCHER_PACKAGES = ("vm", "multimatch", "prefilter")
STEP_TABLE_FILL = {("vm/kernel.py", "DispatchTables"), ("vm/kernel.py", "_StepColumn")}


def step_opcode_owners(tree: ast.Module):
    """The class (``None`` at module level) of every function that names
    a step opcode; module-level constant definitions are not dispatch."""
    for node in tree.body:
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for inner in ast.walk(node):
            if not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name in ast.walk(inner):
                if (isinstance(name, ast.Name) and name.id in STEP_OPCODES) or (
                    isinstance(name, ast.Attribute) and name.attr in STEP_OPCODES
                ):
                    yield owner
                    break


def test_only_the_step_table_fill_dispatches_on_opcodes():
    found = set()
    for package in MATCHER_PACKAGES:
        for path in sorted((SOURCE / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found |= {
                (path.relative_to(SOURCE).as_posix(), owner)
                for owner in step_opcode_owners(tree)
            }
    assert found == STEP_TABLE_FILL


def test_the_walk_sees_a_pasted_back_worklist():
    # The deleted per-position set worklist of ``Enumeration.feed``, abridged.
    shadow = ast.parse(
        "class Enumeration:\n"
        "    def feed(self, data, start=0):\n"
        "        match, match_any, not_match, accept_partial = (\n"
        "            MATCH, MATCH_ANY, NOT_MATCH, ACCEPT_PARTIAL\n"
        "        )\n"
        "        while worklist:\n"
        "            pc = worklist.pop()\n"
        "            if opcodes[pc] == not_match and char != operands[pc]:\n"
        "                worklist.extend(successors[pc])\n"
    )
    assert set(step_opcode_owners(shadow)) == {"Enumeration"}


def test_the_step_column_is_defined_once():
    definers = set()
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__missing__"
                for item in node.body
            ):
                definers.add((path.relative_to(SOURCE).as_posix(), node.name))
    assert definers == {("vm/kernel.py", "_StepColumn")}


#: Calls that build a process pool or start a worker process and its
#: pipe (by name or attribute), and calls that hand a pool work
#: (attribute only: the builtin ``map`` is a ``Name``).  ``apply`` is
#: left out: the IR rewrite driver has one.
POOL_BUILDERS = {"Pool", "ProcessPoolExecutor", "Process", "Pipe"}
POOL_WORK = {
    "apply_async", "map", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async",
}


def pool_calls(tree: ast.AST):
    """Every pool construction or pool dispatch call in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        if isinstance(function, ast.Name) and function.id in POOL_BUILDERS:
            yield function.id
        elif isinstance(function, ast.Attribute) and (
            function.attr in POOL_BUILDERS | POOL_WORK
        ):
            yield function.attr


def test_only_the_supervisor_runs_a_pool():
    owners = {
        path.relative_to(SOURCE).as_posix()
        for path in sorted(SOURCE.rglob("*.py"))
        if any(pool_calls(ast.parse(path.read_text(), str(path))))
    }
    assert owners == {"engine/supervisor.py"}


def test_the_walk_sees_a_pasted_back_pool_map():
    # The deleted unsupervised ``pool.map`` path of ``engine/parallel.py``,
    # abridged (its name stays out of the tree, like the modules above).
    shadow = ast.parse(
        "def sharded_matches(payload, texts, jobs, mp_context=None):\n"
        "    context = resolve_mp_context(mp_context)\n"
        "    with context.Pool(\n"
        "        processes=jobs, initializer=_init_worker, initargs=(payload,)\n"
        "    ) as pool:\n"
        "        return pool.map(_match_one, texts, chunksize=chunksize)\n"
    )
    assert set(pool_calls(shadow)) == {"Pool", "map"}


#: Matcher constructors the engine and the service may call.  The
#: engine builds one matcher per pattern, in ``build_match_fn``, for its
#: cache entry and for every supervised worker alike.
MATCHER_CONSTRUCTORS = {"PrefilteredMatcher", "ThompsonVM", "CiceroSystem"}
ENGINE_PACKAGES = ("engine", "service")


def matcher_constructions(tree: ast.Module, constructors=MATCHER_CONSTRUCTORS):
    """``(top-level function or class, constructor)`` for every call of
    one of ``constructors`` in ``tree``; module-level calls report
    ``None``."""
    for node in tree.body:
        owner = getattr(node, "name", None)
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            function = inner.func
            name = getattr(function, "id", None) or getattr(function, "attr", None)
            if name in constructors:
                yield owner, name


def test_the_engine_builds_one_matcher():
    found = set()
    for package in ENGINE_PACKAGES:
        for path in sorted((SOURCE / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found |= {
                (path.relative_to(SOURCE).as_posix(), owner, name)
                for owner, name in matcher_constructions(tree)
            }
    assert found == {("engine/parallel.py", "build_match_fn", "PrefilteredMatcher")}


def test_the_walk_sees_a_pasted_back_simulator_branch():
    # The deleted simulator branch of ``build_match_fn``, abridged.
    shadow = ast.parse(
        "def build_match_fn(payload, metrics=None, vm=None):\n"
        "    if payload.backend == 'cicero':\n"
        "        if vm is None:\n"
        "            vm = ThompsonVM(payload.artifact)\n"
        "        return lambda data: bool(vm.run(data))\n"
        "    system = CiceroSystem(payload.artifact, config)\n"
        "    return lambda data: system.run(data).matched\n"
    )
    assert set(matcher_constructions(shadow)) == {
        ("build_match_fn", "ThompsonVM"),
        ("build_match_fn", "CiceroSystem"),
    }


def lazy_dfa_builders(tree: ast.Module):
    return {owner for owner, _ in matcher_constructions(tree, {"LazyDFA"})}


def test_one_lazy_dfa_per_pattern():
    """A pattern's lazy DFA is its ``LazyDFAMatcher``'s: one-shot and
    streams share it."""
    found = {
        (path.relative_to(SOURCE).as_posix(), owner)
        for path in sorted(SOURCE.rglob("*.py"))
        for owner in lazy_dfa_builders(ast.parse(path.read_text(), str(path)))
    }
    assert found == {("prefilter/lazydfa.py", "LazyDFAMatcher")}


def test_the_walk_sees_a_pasted_back_private_dfa():
    # The deleted DFA branch of ``StreamingMatcher.__init__``, abridged
    # (its keyword is renamed, so that a grep for it stays empty).
    shadow = ast.parse(
        "class StreamingMatcher:\n"
        "    def __init__(self, program, *, accelerate=False, cap=None):\n"
        "        self._dfa = None\n"
        "        if accelerate:\n"
        "            self._dfa = LazyDFA(program, max_states=cap)\n"
    )
    assert lazy_dfa_builders(shadow) == {"StreamingMatcher"}


def lazy_dfa_matcher_hand_offs(tree: ast.Module):
    """``(what, method)`` for every ``LazyDFAMatcher`` method that catches
    ``LazyDFABlowup`` to step down a tier (a handler that settles a
    multi-DFA walk by ``_lockstep`` does not) or hands a state to
    ``Enumeration.feed`` (a ``.feed`` call on anything but ``self``)."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == "LazyDFAMatcher"):
            continue
        for method in node.body:
            for inner in ast.walk(method):
                if isinstance(inner, ast.ExceptHandler) and inner.type is not None:
                    caught = {
                        getattr(name, "id", None) or getattr(name, "attr", None)
                        for name in ast.walk(inner.type)
                    }
                    if "LazyDFABlowup" in caught and "_lockstep" not in set(
                        called_names(inner)
                    ):
                        yield "steps down", method.name
                elif (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "feed"
                    and getattr(inner.func.value, "id", None) != "self"
                ):
                    yield "feeds the kernel", method.name


def test_the_lazy_dfa_matcher_steps_down_in_one_place():
    """The product DFA, the branch DFAs and the kernel are tiers of one
    walk: one method steps down at a blowup and hands over to the kernel,
    for one-shot ``match`` and streams alike."""
    path = SOURCE / "prefilter" / "lazydfa.py"
    found = set(lazy_dfa_matcher_hand_offs(ast.parse(path.read_text(), str(path))))
    assert found == {("steps down", "_advance"), ("feeds the kernel", "_advance")}


def test_the_walk_sees_a_pasted_back_resume():
    # The deleted ``LazyDFAMatcher._resume``, abridged.
    shadow = ast.parse(
        "class LazyDFAMatcher:\n"
        "    def _resume(self, state, data, start):\n"
        "        split = self.split\n"
        "        if split is not None and not self.on_kernel:\n"
        "            try:\n"
        "                verdict, offset, frontier = self._split_walk(\n"
        "                    split, data, state.frontier, start, streaming=True\n"
        "                )\n"
        "            except LazyDFABlowup as blowup:\n"
        "                self._split_blew()\n"
        "                state.frontier = blowup.state\n"
        "                state.consumed += blowup.offset - start\n"
        "                return state.feed(data, blowup.offset)\n"
        "            state.consumed += offset - start\n"
        "            return\n"
        "        state.feed(data, start)\n"
    )
    assert set(lazy_dfa_matcher_hand_offs(shadow)) == {
        ("steps down", "_resume"),
        ("feeds the kernel", "_resume"),
    }


def vm_imports_of_prefilter(path: Path, source=None):
    return {
        name
        for name in imported_modules(path, source)
        if name == "repro.prefilter" or name.startswith("repro.prefilter.")
    }


def test_the_vm_does_not_import_the_prefilter():
    """``repro.vm`` sits under ``repro.prefilter``: the lazy DFA drives
    the kernel, never the other way round."""
    for path in sorted((SOURCE / "vm").rglob("*.py")):
        assert not vm_imports_of_prefilter(path), path


def test_the_walk_sees_a_pasted_back_prefilter_import():
    # The deleted import line of ``vm/streaming.py``.
    line = "from ..prefilter.lazydfa import DEFAULT_MAX_DFA_STATES, LazyDFA\n"
    assert "repro.prefilter.lazydfa.LazyDFA" in vm_imports_of_prefilter(
        SOURCE / "vm" / "streaming.py", line
    )

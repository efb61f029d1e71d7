"""The repo-specific rule catalogue (DESIGN.md §2.9).

Five rule families, each enforcing an invariant the library's
guarantees rest on:

``rng`` (RNG001)
    Random-stream *construction* is confined to :mod:`repro.util.rng`.
    Everything else threads :func:`~repro.util.rng.as_generator` /
    :func:`~repro.util.rng.spawn_generators` streams; a stray
    ``np.random.default_rng()`` in a harness silently decouples a
    result from its seed tuple.

``determinism`` (DET001–DET003)
    No wall clocks, OS entropy, or unsorted-set iteration inside
    ``core/`` or the cache-key/canonicalisation paths
    (``sweeps/spec.py``, ``sweeps/cache.py``, ``service/requests.py``),
    and every ``json.dumps`` there must pass ``sort_keys=True`` —
    content addresses are only content addresses if the bytes are a
    pure function of the content.

``lock-discipline`` (LCK001)
    A lightweight race detector: an attribute written under
    ``with self._lock`` in one method is part of the lock's protected
    state; touching it anywhere else without the lock is a report.
    Applies to every class that constructs a ``threading.Lock`` and to
    module-level locks guarding module globals.

``sqlite-thread`` (SQL001–SQL003)
    SQLite handles are thread-affine.  A class that opens a
    ``sqlite3.connect`` handle must route all SQL through its
    ``_execute`` method (which carries the runtime
    ``threading.get_ident`` owner assert), and nothing outside the
    owning class may touch the handle at all.

``registry`` (REG001–REG003)
    Declared protocol kinds must be complete: every entry of
    ``PROTOCOL_KINDS`` needs a ``ProtocolSpec.build`` branch, an
    ``_PROTOCOL_COST_FACTORS`` entry, and must resolve to protocol
    classes with a concrete ``step_batch`` and ``summarize`` — a kind
    you can declare but not execute (or not schedule) is a runtime
    crash waiting in a worker.

Rules are pure functions of parsed ASTs — nothing here imports the
modules it audits, so the linter can also judge code too broken to
import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Any, Iterator, Sequence

from repro.lint.engine import Finding, SourceFile

__all__ = [
    "ALL_RULES",
    "Rule",
    "DeterminismRule",
    "LockDisciplineRule",
    "RegistryCompletenessRule",
    "RngDisciplineRule",
    "SqliteThreadRule",
    "rule_catalog",
]


class Rule:
    """One rule family: per-file and/or whole-project checks."""

    rule_ids: tuple[str, ...] = ()
    family: str = ""
    description: str = ""

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        return iter(())


# -- shared AST helpers ------------------------------------------------


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name → fully dotted origin, from this module's imports."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _resolve(dotted: str, imports: dict[str, str]) -> str:
    """Expand the first segment of *dotted* through the import map."""
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


def _last2(dotted: str) -> str:
    return ".".join(dotted.split(".")[-2:])


def _is_self_attr(node: ast.AST, attr: str | None = None) -> str | None:
    """The attribute name if *node* is ``self.<attr>``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        if attr is None or node.attr == attr:
            return node.attr
    return None


# -- RNG001: RNG construction discipline -------------------------------

_RNG_CONSTRUCTORS = frozenset(
    {
        "Generator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "RandomState",
        "default_rng",
        "seed",
    }
)

_RNG_ALLOWED_SUFFIXES = ("util/rng.py",)


class RngDisciplineRule(Rule):
    rule_ids = ("RNG001",)
    family = "rng"
    description = (
        "numpy random-stream construction (Generator/PCG64/default_rng/"
        "seed/...) must live in util/rng.py; everything else goes "
        "through as_generator/spawn_generators"
    )

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        if src.rel.endswith(_RNG_ALLOWED_SUFFIXES):
            return
        imports = _import_map(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            name = dotted.rsplit(".", 1)[-1]
            if name not in _RNG_CONSTRUCTORS:
                continue
            resolved = _resolve(dotted, imports)
            segments = resolved.split(".")
            # numpy.random.<ctor> through any import spelling, plus the
            # raw `<anything>.random.<ctor>` chain as a fallback when the
            # import is not visible to this module's AST.
            from_numpy_random = (
                len(segments) >= 2
                and segments[-2] == "random"
                and (segments[0] in ("numpy", "np") or resolved.startswith("numpy."))
            )
            bare_import = resolved == f"numpy.random.{name}" or (
                "." not in dotted and imports.get(dotted, "").startswith("numpy.random.")
            )
            if from_numpy_random or bare_import:
                yield Finding(
                    path=src.rel,
                    line=node.lineno,
                    rule="RNG001",
                    message=(
                        f"direct RNG construction {dotted}(...) outside "
                        "util/rng.py"
                    ),
                    hint=(
                        "build streams with repro.util.rng.as_generator / "
                        "spawn_generators so every stream stays replayable "
                        "from a seed tuple"
                    ),
                )


# -- DET001–DET003: determinism purity ---------------------------------

_DET_SCOPE_SEGMENTS = ("core",)
_DET_SCOPE_SUFFIXES = (
    "sweeps/spec.py",
    "sweeps/cache.py",
    "service/requests.py",
)

_BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


def _in_determinism_scope(rel: str) -> bool:
    parts = PurePosixPath(rel).parts
    return any(seg in parts for seg in _DET_SCOPE_SEGMENTS) or rel.endswith(
        _DET_SCOPE_SUFFIXES
    )


class DeterminismRule(Rule):
    rule_ids = ("DET001", "DET002", "DET003")
    family = "determinism"
    description = (
        "no wall clocks / OS entropy / unsorted-set iteration in core/ "
        "or the cache-key paths; json.dumps feeding digests needs "
        "sort_keys=True"
    )

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        if not _in_determinism_scope(src.rel):
            return
        imports = _import_map(src.tree)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                resolved = _resolve(dotted, imports) if dotted else None
                if resolved is not None:
                    if _last2(resolved) in _BANNED_CALLS or resolved in _BANNED_CALLS:
                        yield Finding(
                            path=src.rel,
                            line=node.lineno,
                            rule="DET001",
                            message=(
                                f"nondeterministic call {dotted}() in a "
                                "determinism-critical path"
                            ),
                            hint=(
                                "clocks and OS entropy must stay out of core/ "
                                "and the canonicalisation paths; thread values "
                                "in from the caller instead"
                            ),
                        )
                    elif resolved.startswith("secrets."):
                        yield Finding(
                            path=src.rel,
                            line=node.lineno,
                            rule="DET001",
                            message=(
                                f"OS-entropy call {dotted}() in a "
                                "determinism-critical path"
                            ),
                            hint="derive randomness from a seeded stream instead",
                        )
                    if _last2(resolved) == "json.dumps":
                        yield from self._check_dumps(src, node)
            for iter_node in self._iteration_targets(node):
                if isinstance(iter_node, ast.Set) or (
                    isinstance(iter_node, ast.Call)
                    and isinstance(iter_node.func, ast.Name)
                    and iter_node.func.id in ("set", "frozenset")
                ):
                    yield Finding(
                        path=src.rel,
                        line=iter_node.lineno,
                        rule="DET002",
                        message="iteration over an unsorted set",
                        hint=(
                            "set iteration order is hash-salted; wrap the "
                            "set in sorted(...) before iterating"
                        ),
                    )

    @staticmethod
    def _iteration_targets(node: ast.AST) -> Iterator[ast.expr]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter

    @staticmethod
    def _check_dumps(src: SourceFile, node: ast.Call) -> Iterator[Finding]:
        has_splat = any(kw.arg is None for kw in node.keywords)
        sort_keys = next(
            (kw for kw in node.keywords if kw.arg == "sort_keys"), None
        )
        ok = sort_keys is not None and (
            isinstance(sort_keys.value, ast.Constant)
            and sort_keys.value.value is True
        )
        if not ok and not has_splat:
            yield Finding(
                path=src.rel,
                line=node.lineno,
                rule="DET003",
                message=(
                    "json.dumps without sort_keys=True in a "
                    "determinism-critical path"
                ),
                hint=(
                    "canonical/digested JSON must serialise with "
                    "sort_keys=True or the same content can hash two ways"
                ),
            )


# -- LCK001: lock discipline -------------------------------------------


@dataclass
class _Access:
    attr: str
    line: int
    write: bool
    locked: bool
    func: str


class _LockWalker(ast.NodeVisitor):
    """Record guarded-candidate accesses in one function body."""

    def __init__(self, names: frozenset[str], lock_exprs: frozenset[str], func: str):
        self.names = names          # attribute / global names to track
        self.lock_exprs = lock_exprs  # "self._lock" style dotted forms
        self.func = func
        self.depth = 0
        self.accesses: list[_Access] = []
        self.globals_declared: set[str] = set()

    # lock scopes ----------------------------------------------------

    def _is_lock(self, expr: ast.expr) -> bool:
        dotted = _dotted(expr)
        return dotted is not None and dotted in self.lock_exprs

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        holds = any(self._is_lock(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if holds:
            self.depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if holds:
            self.depth -= 1

    # access recording -----------------------------------------------

    def _record(self, attr: str, line: int, write: bool) -> None:
        self.accesses.append(
            _Access(attr, line, write, self.depth > 0, self.func)
        )

    def _record_target(self, target: ast.expr) -> None:
        attr = _is_self_attr(target)
        if attr is not None and attr in self.names:
            self._record(attr, target.lineno, write=True)
            return
        if isinstance(target, ast.Subscript):
            inner = _is_self_attr(target.value)
            if inner is not None and inner in self.names:
                self._record(inner, target.lineno, write=True)
            else:
                self.visit(target.value)
            self.visit(target.slice)
            return
        if isinstance(target, ast.Name):
            if target.id in self.names and target.id in self.globals_declared:
                self._record(target.id, target.lineno, write=True)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt)
            return
        self.visit(target)

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _is_self_attr(node)
        if attr is not None and attr in self.names:
            self._record(attr, node.lineno, write=False)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.id in self.names
            and "self" not in self.lock_exprs_prefixes()
        ):
            self._record(node.id, node.lineno, write=False)

    def lock_exprs_prefixes(self) -> set[str]:
        return {e.split(".")[0] for e in self.lock_exprs}


def _lock_call(node: ast.expr, imports: dict[str, str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    if dotted is None:
        return False
    resolved = _resolve(dotted, imports)
    return _last2(resolved) in ("threading.Lock", "threading.RLock")


class LockDisciplineRule(Rule):
    rule_ids = ("LCK001",)
    family = "lock-discipline"
    description = (
        "state written under `with <lock>` in one method must not be "
        "touched elsewhere without the lock (classes with a "
        "threading.Lock attribute, plus module-level locks)"
    )

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        imports = _import_map(src.tree)
        for node in src.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(src, node, imports)
        yield from self._check_module_level(src, imports)

    # class-attribute variant ----------------------------------------

    def _check_class(
        self, src: SourceFile, cls: ast.ClassDef, imports: dict[str, str]
    ) -> Iterator[Finding]:
        methods = [
            n
            for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs: set[str] = set()
        for method in methods:
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign) and _lock_call(sub.value, imports):
                    for target in sub.targets:
                        attr = _is_self_attr(target)
                        if attr is not None:
                            lock_attrs.add(attr)
        if not lock_attrs:
            return
        lock_exprs = frozenset(f"self.{name}" for name in lock_attrs)
        # Track every self.<attr>; which ones are guarded is inferred
        # from the write pattern below.
        attr_names: set[str] = set()
        for method in methods:
            for sub in ast.walk(method):
                attr = _is_self_attr(sub) if isinstance(sub, ast.Attribute) else None
                if attr is not None:
                    attr_names.add(attr)
        attr_names -= lock_attrs
        accesses: list[_Access] = []
        for method in methods:
            walker = _LockWalker(frozenset(attr_names), lock_exprs, method.name)
            for stmt in method.body:
                walker.visit(stmt)
            accesses.extend(walker.accesses)
        lock_name = sorted(lock_attrs)[0]
        yield from self._judge(
            src,
            accesses,
            exempt=("__init__",),
            describe=lambda attr: f"self.{attr}",
            lock_label=f"self.{lock_name}",
            owner=cls.name,
        )

    # module-global variant ------------------------------------------

    def _check_module_level(
        self, src: SourceFile, imports: dict[str, str]
    ) -> Iterator[Finding]:
        module_locks: set[str] = set()
        module_globals: set[str] = set()
        for node in src.tree.body:
            if isinstance(node, ast.Assign):
                names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if _lock_call(node.value, imports):
                    module_locks.update(names)
                else:
                    module_globals.update(names)
        if not module_locks:
            return
        module_globals -= module_locks
        lock_exprs = frozenset(module_locks)
        functions = [
            n
            for n in src.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        accesses: list[_Access] = []
        for fn in functions:
            walker = _LockWalker(frozenset(module_globals), lock_exprs, fn.name)
            for stmt in fn.body:
                walker.visit(stmt)
            accesses.extend(walker.accesses)
        lock_name = sorted(module_locks)[0]
        yield from self._judge(
            src,
            accesses,
            exempt=(),
            describe=lambda attr: attr,
            lock_label=lock_name,
            owner=src.rel,
        )

    @staticmethod
    def _judge(
        src: SourceFile,
        accesses: list[_Access],
        *,
        exempt: tuple[str, ...],
        describe: Any,
        lock_label: str,
        owner: str,
    ) -> Iterator[Finding]:
        guarded: dict[str, str] = {}
        for acc in accesses:
            if acc.write and acc.locked and acc.func not in exempt:
                guarded.setdefault(acc.attr, acc.func)
        for acc in accesses:
            if acc.attr not in guarded or acc.locked or acc.func in exempt:
                continue
            witness = guarded[acc.attr]
            kind = "written" if acc.write else "read"
            yield Finding(
                path=src.rel,
                line=acc.line,
                rule="LCK001",
                message=(
                    f"{describe(acc.attr)} {kind} without {lock_label} in "
                    f"{acc.func}() but written under the lock in "
                    f"{witness}() ({owner})"
                ),
                hint=(
                    f"take `with {lock_label}:` around this access, or "
                    "move the state out of the lock's protected set"
                ),
            )


# -- SQL001–SQL003: SQLite thread affinity -----------------------------

_CONN_ALLOWED_METHODS = frozenset({"__init__", "close", "_execute"})
_DEFAULT_CONN_NAMES = frozenset({"_conn"})


def _class_conn_attrs(cls: ast.ClassDef, imports: dict[str, str]) -> set[str]:
    """Attributes of *cls* assigned from ``sqlite3.connect(...)``."""
    out: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        dotted = _dotted(node.value.func)
        if dotted is None:
            continue
        if _last2(_resolve(dotted, imports)) != "sqlite3.connect":
            continue
        for target in node.targets:
            attr = _is_self_attr(target)
            if attr is not None:
                out.add(attr)
    return out


class SqliteThreadRule(Rule):
    rule_ids = ("SQL001", "SQL002", "SQL003")
    family = "sqlite-thread"
    description = (
        "a sqlite3 handle may only be touched by its owning class, "
        "routed through _execute() (which must assert the owning "
        "thread via threading.get_ident)"
    )

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        imports = _import_map(src.tree)
        conn_names: set[str] = set(_DEFAULT_CONN_NAMES)
        owners: list[tuple[ast.ClassDef, set[str]]] = []
        for node in src.tree.body:
            if isinstance(node, ast.ClassDef):
                attrs = _class_conn_attrs(node, imports)
                if attrs:
                    owners.append((node, attrs))
                    conn_names |= attrs
        for cls, attrs in owners:
            yield from self._check_owner(src, cls, attrs, imports)
        yield from self._check_foreign(src, conn_names)

    def _check_owner(
        self,
        src: SourceFile,
        cls: ast.ClassDef,
        conn_attrs: set[str],
        imports: dict[str, str],
    ) -> Iterator[Finding]:
        asserts_owner = False
        for node in ast.walk(cls):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted and _last2(_resolve(dotted, imports)) == (
                    "threading.get_ident"
                ):
                    asserts_owner = True
        if not asserts_owner:
            yield Finding(
                path=src.rel,
                line=cls.lineno,
                rule="SQL003",
                message=(
                    f"{cls.name} owns a sqlite3 handle but never asserts "
                    "its owning thread (no threading.get_ident() check)"
                ),
                hint=(
                    "record threading.get_ident() at construction and "
                    "assert it in _execute() before touching the handle"
                ),
            )
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _CONN_ALLOWED_METHODS:
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Attribute):
                    continue
                attr = _is_self_attr(node)
                if attr in conn_attrs:
                    yield Finding(
                        path=src.rel,
                        line=node.lineno,
                        rule="SQL002",
                        message=(
                            f"direct use of self.{attr} in "
                            f"{cls.name}.{method.name}() bypasses "
                            f"{cls.name}._execute()"
                        ),
                        hint=(
                            "route SQL through self._execute(sql, params) "
                            "so the owning-thread assert always runs"
                        ),
                    )

    @staticmethod
    def _check_foreign(src: SourceFile, conn_names: set[str]) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in conn_names:
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue
            receiver = _dotted(node.value) or "<expr>"
            yield Finding(
                path=src.rel,
                line=node.lineno,
                rule="SQL001",
                message=(
                    f"SQLite handle {receiver}.{node.attr} touched from "
                    "outside its owning class"
                ),
                hint=(
                    "SQLite connections are thread-affine; call the "
                    "owner's public methods (or open a fresh handle) "
                    "instead of reaching into the object"
                ),
            )


# -- REG001–REG003: protocol registry completeness ---------------------


@dataclass
class _ClassInfo:
    bases: tuple[str, ...]
    concrete_methods: frozenset[str]


def _is_abstract(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for deco in fn.decorator_list:
        dotted = _dotted(deco)
        if dotted and dotted.rsplit(".", 1)[-1] == "abstractmethod":
            return True
    return False


def _project_classes(files: Sequence[SourceFile]) -> dict[str, _ClassInfo]:
    out: dict[str, _ClassInfo] = {}
    for src in files:
        for node in src.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                d for d in (_dotted(b) for b in node.bases) if d is not None
            )
            concrete = frozenset(
                sub.name
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_abstract(sub)
            )
            out[node.name] = _ClassInfo(bases=bases, concrete_methods=concrete)
    return out


def _resolves_method(
    name: str, method: str, classes: dict[str, _ClassInfo]
) -> bool:
    seen: set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        info = classes.get(current)
        if info is None:
            continue
        if method in info.concrete_methods:
            return True
        stack.extend(base.rsplit(".", 1)[-1] for base in info.bases)
    return False


def _string_tuple_assign(node: ast.stmt, name: str) -> list[tuple[str, int]] | None:
    if not isinstance(node, ast.Assign):
        return None
    if not any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
        return None
    if not isinstance(node.value, (ast.Tuple, ast.List)):
        return None
    out = []
    for elt in node.value.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append((elt.value, elt.lineno))
    return out


def _dict_string_keys(node: ast.stmt, name: str) -> tuple[set[str], int] | None:
    if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Dict):
        return None
    if not any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
        return None
    keys = {
        k.value
        for k in node.value.keys
        if isinstance(k, ast.Constant) and isinstance(k.value, str)
    }
    return keys, node.lineno


def _kind_literal(test: ast.expr) -> str | None:
    """The string literal of a ``self.kind == "..."`` comparison."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    if not isinstance(test.ops[0], ast.Eq):
        return None
    operands = [test.left, test.comparators[0]]
    literal = next(
        (
            o.value
            for o in operands
            if isinstance(o, ast.Constant) and isinstance(o.value, str)
        ),
        None,
    )
    mentions_kind = any(
        (isinstance(o, ast.Attribute) and o.attr == "kind")
        or (isinstance(o, ast.Name) and o.id == "kind")
        for o in operands
    )
    return literal if mentions_kind else None


def _branch_constructors(branch: list[ast.stmt]) -> list[tuple[str, int]]:
    """Constructor class names returned by one build() branch."""
    out: list[tuple[str, int]] = []
    for stmt in branch:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            values: list[ast.expr] = [node.value]
            if isinstance(node.value, ast.Dict):
                values = [v for v in node.value.values if v is not None]
            for value in values:
                if isinstance(value, ast.Call):
                    dotted = _dotted(value.func)
                    if dotted is not None:
                        out.append((dotted.rsplit(".", 1)[-1], value.lineno))
    return out


class RegistryCompletenessRule(Rule):
    rule_ids = ("REG001", "REG002", "REG003")
    family = "registry"
    description = (
        "every PROTOCOL_KINDS entry needs a ProtocolSpec.build() branch, "
        "an _PROTOCOL_COST_FACTORS entry, and must resolve to protocol "
        "classes with concrete step_batch + summarize"
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        classes = _project_classes(files)
        for src in files:
            kinds: list[tuple[str, int]] | None = None
            kinds_line = 0
            cost_keys: tuple[set[str], int] | None = None
            spec_cls: ast.ClassDef | None = None
            for node in src.tree.body:
                found = _string_tuple_assign(node, "PROTOCOL_KINDS")
                if found is not None:
                    kinds = found
                    kinds_line = node.lineno
                dict_found = _dict_string_keys(node, "_PROTOCOL_COST_FACTORS")
                if dict_found is not None:
                    cost_keys = dict_found
                if isinstance(node, ast.ClassDef) and node.name == "ProtocolSpec":
                    spec_cls = node
            if kinds is None:
                continue
            yield from self._check_spec_file(
                src, kinds, kinds_line, cost_keys, spec_cls, classes
            )

    def _check_spec_file(
        self,
        src: SourceFile,
        kinds: list[tuple[str, int]],
        kinds_line: int,
        cost_keys: tuple[set[str], int] | None,
        spec_cls: ast.ClassDef | None,
        classes: dict[str, _ClassInfo],
    ) -> Iterator[Finding]:
        handled: dict[str, list[tuple[str, int]]] = {}
        build_fn = None
        if spec_cls is not None:
            build_fn = next(
                (
                    n
                    for n in spec_cls.body
                    if isinstance(n, ast.FunctionDef) and n.name == "build"
                ),
                None,
            )
        if build_fn is not None:
            for node in ast.walk(build_fn):
                if isinstance(node, ast.If):
                    kind = _kind_literal(node.test)
                    if kind is not None:
                        handled.setdefault(kind, []).extend(
                            _branch_constructors(node.body)
                        )
        for kind, line in kinds:
            if kind not in handled:
                yield Finding(
                    path=src.rel,
                    line=line,
                    rule="REG001",
                    message=(
                        f"protocol kind {kind!r} is declared but has no "
                        "ProtocolSpec.build() branch"
                    ),
                    hint=(
                        "add a build() case returning the Protocol object "
                        "(or mapping) this kind executes as"
                    ),
                )
            if cost_keys is not None and kind not in cost_keys[0]:
                yield Finding(
                    path=src.rel,
                    line=cost_keys[1],
                    rule="REG002",
                    message=(
                        f"protocol kind {kind!r} has no "
                        "_PROTOCOL_COST_FACTORS entry"
                    ),
                    hint=(
                        "declare a cost factor so largest-first scheduling "
                        "and job ETAs stay truthful for this kind"
                    ),
                )
            for ctor, ctor_line in handled.get(kind, []):
                if ctor not in classes:
                    yield Finding(
                        path=src.rel,
                        line=ctor_line,
                        rule="REG003",
                        message=(
                            f"kind {kind!r} builds {ctor}(), which is not a "
                            "class the linter can resolve"
                        ),
                        hint=(
                            "build() must return protocol classes defined "
                            "in the linted tree"
                        ),
                    )
                    continue
                for method in ("step_batch", "summarize"):
                    if not _resolves_method(ctor, method, classes):
                        yield Finding(
                            path=src.rel,
                            line=ctor_line,
                            rule="REG003",
                            message=(
                                f"kind {kind!r} builds {ctor}(), which has "
                                f"no concrete {method}() anywhere in its "
                                "base chain"
                            ),
                            hint=(
                                f"implement {method}() (the engine calls it "
                                "on every protocol) or inherit a concrete one"
                            ),
                        )


ALL_RULES: tuple[Rule, ...] = (
    RngDisciplineRule(),
    DeterminismRule(),
    LockDisciplineRule(),
    SqliteThreadRule(),
    RegistryCompletenessRule(),
)


def rule_catalog() -> list[dict[str, str]]:
    """``{ids, family, description}`` per rule (``repro lint --rules``)."""
    return [
        {
            "ids": ", ".join(rule.rule_ids),
            "family": rule.family,
            "description": rule.description,
        }
        for rule in ALL_RULES
    ]

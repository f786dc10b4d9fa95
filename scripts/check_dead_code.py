#!/usr/bin/env python3
"""Dead-code checker for ``src/``: unused imports and unreferenced symbols.

Pure AST, standard library only, so it runs wherever the tests run (CI
also runs ``ruff --select F401,F811`` over ``src``).  It reports:

(a) **unused imports** in every ``src/`` module.  An import is used if
    its bound name is read anywhere in the scope that holds the import
    (nested functions included) or listed in the module's ``__all__``
    — the re-export rule of the package ``__init__`` files.
(b) **unreferenced symbols**: top-level functions and classes of the
    non-``__init__`` ``src/`` modules that no live code names.  Live
    code is every module-level statement of ``src/`` (outside the
    ``__init__`` re-exports), ``examples/``, ``scripts/`` and
    ``benchmarks/``, plus the body of every symbol that live code
    names, followed to a fixpoint — so a helper whose only caller is
    dead is dead too.  Names are matched by identifier (``foo`` and
    ``obj.foo`` both name ``foo``); ``tests/`` never counts.
(c) **stale keep entries**: a :data:`KEEP` name that no longer exists,
    or that live code now names without the keep-list's help.

:data:`KEEP` exempts the few symbols that only users or tests call:
each entry states why it stays.

Usage::

    python scripts/check_dead_code.py    # exit 1 + one line per finding

``tests/test_dead_code.py`` runs it from pytest and shows that it flags
an injected unused import, unreferenced def and stale keep entry.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Directories (relative to the repo root) whose code keeps symbols alive.
LIVE_DIRS = ("examples", "scripts", "benchmarks")

#: Symbols that stay although no live code names them, with the reason.
KEEP: Dict[str, str] = {
    "load_series_csv": "user-facing: TUTORIAL §1, the way in for the real UCR archive",
    "filter_cutoff_frequencies": "user-facing: TUTORIAL §4 reads the learned cutoffs",
    "energy_per_inference": "user-facing: TUTORIAL §4 reads the energy per inference",
    "synthesize_ptanh": "user-facing: README and TUTORIAL §7 design the ptanh circuit",
    "StreamingClassifier": "user-facing: README and TUTORIAL §5 stream a series",
    "filter_scan": "oracle: functional FilterScan the scan and precision tests call",
    "check_gradients": "oracle: finite-difference gradient checker of the tests",
    "dc_operating_point": "oracle: linear DC reference of the MNA and Newton tests",
    "spice_to_circuit": "oracle: round trip of circuit_to_spice, which the CLI uses",
    "Sine": "oracle: the stimulus behind the transient analytic tests",
}


def _python_files(root: pathlib.Path) -> Iterator[pathlib.Path]:
    if root.is_dir():
        yield from sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST) -> Set[str]:
    """Identifiers read in ``node``: bare names and attribute names."""
    found: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Import):
            found.update(part for alias in sub.names for part in alias.name.split("."))
    return found | _string_annotation_names(node)


def _string_annotation_names(node: ast.AST) -> Set[str]:
    """Names inside quoted annotations such as ``x: "Optional[Tensor]"``."""
    annotations = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            annotations.append(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            annotations.append(sub.annotation)
    found: Set[str] = set()
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                found.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return found


def _is_dunder_all(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _dunder_all(tree: ast.Module) -> Set[str]:
    """The string entries of the module's ``__all__`` list or tuple."""
    return {
        elt.value
        for node in tree.body
        if _is_dunder_all(node) and isinstance(node.value, (ast.List, ast.Tuple))
        for elt in node.value.elts
        if isinstance(elt, ast.Constant)
    }


def unused_imports(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, name)`` for every import whose bound name is never read."""
    unused: List[Tuple[int, str]] = []
    exported = _dunder_all(tree)
    scopes: List[ast.AST] = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for scope in scopes:
        body_imports = [
            stmt for stmt in _own_statements(scope)
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
        ]
        if not body_imports:
            continue
        read = {
            sub.id for sub in ast.walk(scope)
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
        }
        read |= _string_annotation_names(scope)
        if scope is tree:
            read |= exported
        for stmt in body_imports:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in read:
                    unused.append((stmt.lineno, alias.asname or alias.name))
    return sorted(unused)


def _own_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """Statements of ``scope`` outside any nested function or class."""
    stack = list(getattr(scope, "body", []))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            stack.extend(getattr(stmt, field, []))


def _definitions(
    trees: Dict[pathlib.Path, ast.Module]
) -> Tuple[Dict[str, List[Tuple[pathlib.Path, int]]], Dict[str, Set[str]], Set[str]]:
    """Top-level symbols, the names each symbol's body reads, and root names."""
    where: Dict[str, List[Tuple[pathlib.Path, int]]] = {}
    body_names: Dict[str, Set[str]] = {}
    roots: Set[str] = set()
    for path, tree in trees.items():
        is_init = path.name == "__init__.py"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not is_init:
                where.setdefault(node.name, []).append((path, node.lineno))
                body_names.setdefault(node.name, set()).update(_names(node) - {node.name})
            elif is_init and (isinstance(node, (ast.Import, ast.ImportFrom)) or _is_dunder_all(node)):
                continue
            else:
                roots |= _names(node)
    return where, body_names, roots


def _live(roots: Set[str], body_names: Dict[str, Set[str]]) -> Set[str]:
    live: Set[str] = set()
    frontier = [name for name in roots if name in body_names]
    while frontier:
        name = frontier.pop()
        if name in live:
            continue
        live.add(name)
        frontier.extend(n for n in body_names[name] if n in body_names and n not in live)
    return live


def check(root: pathlib.Path = REPO_ROOT, keep: Dict[str, str] = KEEP) -> List[str]:
    """Every finding under ``root`` as one ``path:line: message`` line."""
    src = root / "src"
    trees = {path: _parse(path) for path in _python_files(src)}
    findings: List[str] = []

    for path, tree in trees.items():
        for line, name in unused_imports(tree):
            findings.append(f"{path.relative_to(root)}:{line}: unused import '{name}'")

    where, body_names, roots = _definitions(trees)
    for directory in LIVE_DIRS:
        for path in _python_files(root / directory):
            roots |= _names(_parse(path))

    live_without_keep = _live(roots, body_names)
    live = _live(roots | set(keep), body_names)
    for name in sorted(set(where) - live):
        for path, line in where[name]:
            findings.append(
                f"{path.relative_to(root)}:{line}: '{name}' is named by no live code "
                "(delete it, or add it to KEEP with a reason)"
            )
    for name in sorted(keep):
        if name not in where:
            findings.append(f"KEEP['{name}']: stale, no top-level src/ symbol has this name")
        elif name in live_without_keep:
            findings.append(f"KEEP['{name}']: stale, live code names it now")
    return findings


def main() -> int:
    """Print every finding; exit 1 if there is any."""
    findings = check()
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} dead-code finding(s)", file=sys.stderr)
        return 1
    print(f"no dead code ({len(KEEP)} kept symbols)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Kernel purity: :mod:`repro.kernels` functions are pure over their inputs.

The kernel tier runs multi-threaded and, for WarpLDA's chain, compiled;
that only stays safe if kernels never touch module-level mutable state
and if every in-place output parameter is part of the documented contract:

* ``KER001`` — no ``global`` statements, and no mutation of a module-level
  mutable binding (list/dict/set) from inside a kernel function;
* ``KER002`` — a parameter a kernel writes through (subscript stores,
  ``np.copyto``/``np.add.at``-style in-place calls) must be named in the
  docstring together with an in-place/mutation marker word, so callers can
  see the output contract without reading the body.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.core import (
    Checker,
    ModuleContext,
    Rule,
    attribute_chain,
    register_checker,
    root_name,
)

__all__ = ["KernelChecker"]

_KERNEL_PREFIX = "repro.kernels"

#: The one sanctioned owner of shared executor state in the kernel tier.
#: ``repro.kernels.pool`` exists precisely to hold the lazily-created thread
#: pools every kernel dispatches through (the ``THR001`` counterpart rule in
#: :mod:`repro.analysis.checks.threads` forces kernels to use it), so its
#: module-level executor cache is the contract, not a violation.
_EXEMPT_MODULES = {"repro.kernels.pool"}

#: Method calls that mutate a list/dict/set receiver.
_CONTAINER_MUTATORS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
    "popitem",
    "sort",
    "reverse",
}

#: numpy functions whose first argument is written in place.
_NP_INPLACE_FIRST_ARG = {
    "copyto",
    "put",
    "place",
    "putmask",
    "fill_diagonal",
}

#: ufunc methods (``np.add.at``) whose first argument is written in place.
_UFUNC_INPLACE_METHODS = {"at"}

#: ndarray methods that write the receiver in place.
_NDARRAY_INPLACE_METHODS = {"fill", "sort", "partition", "resize"}

#: docstring marker words acknowledging an in-place output contract.
_DOC_MARKERS = ("in place", "in-place", "mutat", "accumulat", "overwrit", "filled")

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque"}


def _walk_skip_nested(node: ast.AST):
    """Yield descendants of a function body without entering nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


@register_checker
class KernelChecker(Checker):
    name = "kernels"
    RULES = (
        Rule(
            "KER001",
            "kernel writes module-level mutable state",
            "kernels must be pure over their arguments so they can be run "
            "compiled and multi-threaded (ROADMAP item 2); module-level "
            "writes are hidden shared state",
        ),
        Rule(
            "KER002",
            "undocumented in-place mutation of a kernel parameter",
            "a kernel's output contract is its docstring: every parameter "
            "written in place must be named there with an in-place marker "
            "so callers know what changes under them",
        ),
    )

    def begin_module(self, ctx: ModuleContext) -> None:
        self._active = (
            ctx.module == _KERNEL_PREFIX
            or ctx.module.startswith(_KERNEL_PREFIX + ".")
        ) and ctx.module not in _EXEMPT_MODULES
        self._module_mutables: Set[str] = set()
        if not self._active:
            return
        for stmt in ctx.tree.body:
            targets: List[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            mutable = isinstance(value, _MUTABLE_LITERALS) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_FACTORIES
            )
            if mutable:
                for target in targets:
                    if isinstance(target, ast.Name):
                        self._module_mutables.add(target.id)

    # -------------------------------------------------------------- #
    # KER001
    # -------------------------------------------------------------- #
    def visit_Global(self, node: ast.Global, ctx: ModuleContext) -> None:
        if self._active:
            ctx.report(
                "KER001",
                node,
                f"`global {', '.join(node.names)}` in a kernel module — "
                f"kernels may not rebind module state",
            )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not self._active or ctx.enclosing_function() is None:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _CONTAINER_MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._module_mutables
        ):
            ctx.report(
                "KER001",
                node,
                f"`{func.value.id}.{func.attr}(...)` mutates module-level "
                f"state from inside a kernel function",
            )

    def visit_Assign(self, node: ast.Assign, ctx: ModuleContext) -> None:
        self._check_module_store(node.targets, node, ctx)

    def visit_AugAssign(self, node: ast.AugAssign, ctx: ModuleContext) -> None:
        self._check_module_store([node.target], node, ctx)

    def _check_module_store(
        self, targets: List[ast.expr], node: ast.AST, ctx: ModuleContext
    ) -> None:
        if not self._active or ctx.enclosing_function() is None:
            return
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                base = root_name(target)
                if base in self._module_mutables:
                    ctx.report(
                        "KER001",
                        node,
                        f"store into module-level `{base}` from inside a "
                        f"kernel function",
                    )

    # -------------------------------------------------------------- #
    # KER002
    # -------------------------------------------------------------- #
    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: ModuleContext) -> None:
        if not self._active:
            return
        params = {
            arg.arg
            for arg in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
            if arg.arg not in {"self", "cls"}
        }
        if not params:
            return
        mutated: Set[str] = set()
        rebound: Set[str] = set()
        for child in _walk_skip_nested(node):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        base = root_name(target)
                        if base in params:
                            mutated.add(base)
                    elif isinstance(target, ast.Name) and target.id in params:
                        # `word_rows = word_rows.astype(...)`: the name now
                        # points at a local copy, not the caller's array.
                        rebound.add(target.id)
            elif isinstance(child, ast.Call):
                mutated.update(self._call_mutations(child, params))
        mutated -= rebound
        if not mutated:
            return
        docstring = (ast.get_docstring(node) or "").lower()
        has_marker = any(marker in docstring for marker in _DOC_MARKERS)
        for param in sorted(mutated):
            if param.lower() not in docstring or not has_marker:
                ctx.report(
                    "KER002",
                    node,
                    f"kernel `{node.name}` writes parameter `{param}` in "
                    f"place but its docstring does not document the "
                    f"mutation (name the parameter and say it is modified "
                    f"in place)",
                )

    @staticmethod
    def _call_mutations(node: ast.Call, params: Set[str]) -> Set[str]:
        mutated: Set[str] = set()
        func = node.func
        name = attribute_chain(func)
        if name is not None:
            parts = name.split(".")
            # np.copyto(dst, ...), np.add.at(arr, ...), etc.
            first_arg_inplace = (
                len(parts) >= 2
                and parts[0] in {"np", "numpy"}
                and (
                    parts[-1] in _NP_INPLACE_FIRST_ARG
                    or parts[-1] in _UFUNC_INPLACE_METHODS
                )
            )
            if first_arg_inplace and node.args:
                base = root_name(node.args[0])
                if base in params:
                    mutated.add(base)
        # param.fill(0), param.sort(), ...
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NDARRAY_INPLACE_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in params
        ):
            mutated.add(func.value.id)
        # np.maximum(x, 0, out=param) — the ufunc `out=` idiom.
        for keyword in node.keywords:
            if keyword.arg == "out":
                base = root_name(keyword.value)
                if base in params:
                    mutated.add(base)
        return mutated

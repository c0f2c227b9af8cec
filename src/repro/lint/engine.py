"""The lint engine: file discovery, rule dispatch, suppression filtering.

``run_lint`` is the single entry point used by the CLI and the tests: it
indexes the packages containing the requested paths, runs every selected
rule over every requested file, filters suppressed findings, and counts
``# type: ignore`` comments for the strict-typing budget gate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from .context import ModuleContext, iter_scoped
from .findings import Finding
from .index import ProjectIndex, module_name_for
from .layers import LayerContract
from .names import build_aliases
from .rules import ALL_RULES, Rule
from .suppress import collect_suppressions

__all__ = [
    "LintConfig",
    "LintResult",
    "LintUsageError",
    "discover_files",
    "run_lint",
]

_TYPE_IGNORE = re.compile(r"#\s*type:\s*ignore\b")


class LintUsageError(Exception):
    """The engine was invoked unusably (bad path, unknown rule selection)."""


def _default_known_units() -> dict[str, str]:
    # Hardware frequency-domain bounds are MHz by package convention
    # (see units.py and hardware/device.py); the names carry no suffix.
    return {"f_max": "mhz", "f_min": "mhz"}


def _default_sanctioned_modules() -> dict[str, tuple[str, ...]]:
    # The fast engine is *allowed* to relax float semantics (pre-solved,
    # batched MPC gains with factorization reuse); its correctness gate is
    # the statistical-equivalence suite (repro.equiv), not bitwise rules.
    return {"repro.fast": ("REP2",)}


@dataclass(frozen=True)
class LintConfig:
    """Project policy the rules consult (defaults match this repository)."""

    #: Modules whose wall-clock reads are timing infrastructure, excluded
    #: from digests by construction (see runner.TIMING_KEYS).
    wallclock_exempt: tuple[str, ...] = (
        "repro.benchcompare", "repro.cli", "repro.lint", "repro.profiling",
        "repro.report", "repro.runner",
    )
    #: The deterministic-RNG implementation itself.
    rng_impl_modules: tuple[str, ...] = ("repro.rng",)
    #: The unit-converter implementation itself.
    units_impl_modules: tuple[str, ...] = ("repro.units",)
    registry_modules: tuple[str, ...] = ("repro.experiments.registry",)
    registry_names: tuple[str, ...] = ("EXPERIMENTS",)
    #: The atomic-write implementation itself (REP107's sanctioned sink).
    atomicio_exempt: tuple[str, ...] = ("repro.atomicio",)
    controller_base: str = "repro.control.base.PowerCappingController"
    #: Unsuffixed names with a conventional unit.
    known_name_units: dict[str, str] = field(default_factory=_default_known_units)
    #: Rule-id prefixes to run (empty = all rules).
    select: tuple[str, ...] = ()
    #: Module prefixes sanctioned to violate specific rule families.
    #: Unlike ``# repro: noqa`` suppressions (per-line, baseline-audited),
    #: a sanction is a *policy* statement: every module under the prefix
    #: may trigger the listed rule-id prefixes by design.
    sanctioned_modules: dict[str, tuple[str, ...]] = field(
        default_factory=_default_sanctioned_modules
    )
    #: Declared architecture layers (REP601/REP603); ``None`` disables the
    #: contract-backed checks. The CLI discovers it from the nearest
    #: ``pyproject.toml`` with a ``[tool.repro-lint]`` section.
    layer_contract: LayerContract | None = None

    def sanctioned_rules_for(self, module: str) -> tuple[str, ...]:
        """Rule-id prefixes waived for ``module`` (package-prefix match)."""
        waived: list[str] = []
        for prefix, tokens in self.sanctioned_modules.items():
            for token in tokens:
                if not re.match(r"^REP\d{0,3}$", token):
                    raise LintUsageError(
                        f"invalid sanctioned rule selector {token!r} "
                        f"for module prefix {prefix!r}"
                    )
            if module == prefix or module.startswith(prefix + "."):
                waived.extend(tokens)
        return tuple(waived)

    def active_rules(self) -> tuple[Rule, ...]:
        if not self.select:
            return ALL_RULES
        for token in self.select:
            if not re.match(r"^REP\d{0,3}$", token):
                raise LintUsageError(f"invalid rule selector {token!r}")
            if not any(rule.id.startswith(token) for rule in ALL_RULES):
                raise LintUsageError(f"rule selector {token!r} matches no rules")
        return tuple(
            rule
            for rule in ALL_RULES
            if any(rule.id.startswith(token) for token in self.select)
        )


@dataclass
class LintResult:
    """Everything one engine run produced (pre-baseline)."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: (path, line) of every type-ignore comment seen.
    type_ignores: list[tuple[str, int]] = field(default_factory=list)


def _package_root(path: Path) -> Path:
    """Topmost directory of the package containing ``path`` (for indexing)."""
    parent = path if path.is_dir() else path.parent
    while (parent / "__init__.py").exists() and (
        parent.parent / "__init__.py"
    ).exists():
        parent = parent.parent
    if (parent / "__init__.py").exists():
        return parent
    return path if path.is_dir() else path.parent


def _collect_set_names(tree: ast.Module) -> dict[ast.AST, set[str]]:
    """Names assigned a set literal/call, per enclosing scope."""

    def is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return is_set_expr(node.left) or is_set_expr(node.right)
        return False

    names: dict[ast.AST, set[str]] = {}
    for scope, node in iter_scoped(tree):
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and value is not None
            and is_set_expr(value)
        ):
            names.setdefault(scope, set()).add(target.id)
    return names


def _display_path(path: Path) -> str:
    """Path as reported in findings and matched by the baseline (posix)."""
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()


def lint_file(
    path: Path, index: ProjectIndex, config: LintConfig
) -> tuple[list[Finding], list[tuple[str, int]]]:
    """Lint one file; returns (findings, type-ignore locations)."""
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintUsageError(f"cannot read {display}: {exc}") from exc
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="REP000",
                path=display,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
                content="",
            )
        ], []

    module, is_package = module_name_for(path)
    ctx = ModuleContext(
        path=display,
        module=module,
        tree=tree,
        lines=source.splitlines(),
        aliases=build_aliases(tree, module, is_package),
        index=index,
        config=config,
        set_names=_collect_set_names(tree),
    )
    suppressions = collect_suppressions(source, display)
    sanctioned = config.sanctioned_rules_for(module)
    findings: list[Finding] = list(suppressions.errors)
    for rule in config.active_rules():
        for finding in rule.check(ctx):
            if suppressions.is_suppressed(finding.rule, finding.line):
                continue
            if any(finding.rule.startswith(tok) for tok in sanctioned):
                continue
            findings.append(finding)

    ignores = [
        (display, tok.start[0])
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and _TYPE_IGNORE.search(tok.string)
    ]
    return findings, ignores


def discover_files(paths: list[str | Path]) -> tuple[list[Path], list[Path]]:
    """Expand ``paths`` into (unique lintable files, package index roots)."""
    files: list[Path] = []
    roots: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintUsageError(f"no such file or directory: {path}")
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise LintUsageError(f"not a python file: {path}")
        roots.append(_package_root(path))

    seen: set[Path] = set()
    unique_files = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique_files.append(file)
    return unique_files, roots


def run_lint(
    paths: list[str | Path],
    config: LintConfig | None = None,
    restrict: set[Path] | None = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) under ``config``.

    Raises :class:`LintUsageError` for nonexistent paths or invalid rule
    selections; per-file syntax errors become ``REP000`` findings instead,
    so one broken file cannot mask findings elsewhere.

    ``restrict`` (resolved paths) limits which files are *checked* —
    the cross-file index and its derived import/call graphs still cover
    the whole program, so ``--changed`` scoping never weakens the
    whole-program rules, it only narrows where findings are reported.
    """
    config = config or LintConfig()
    config.active_rules()  # validate the selection eagerly
    config.sanctioned_rules_for("")  # validate the sanction tokens eagerly
    unique_files, roots = discover_files(paths)

    index = ProjectIndex.build(sorted(set(r.resolve() for r in roots)))
    if config.layer_contract is not None:
        try:
            config.layer_contract.validate_against(
                frozenset(index.module_aliases)
            )
        except ValueError as exc:
            raise LintUsageError(str(exc)) from exc
    if restrict is not None:
        unique_files = [f for f in unique_files if f.resolve() in restrict]
    result = LintResult()
    for file in unique_files:
        findings, ignores = lint_file(file, index, config)
        result.findings.extend(findings)
        result.type_ignores.extend(ignores)
        result.files_checked += 1
    # Fully deterministic ordering — (path, line, col, rule) — so json
    # output and baselines diff cleanly across runs and platforms.
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import degseq
from degseq import (
    AliasTable,
    CouplingTrace,
    SamplerDiagnostics,
    SymmetricProbMatrix,
    seq_sample_d,
)

PACKAGE = Path(degseq.__file__).resolve().parent
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"


def test_package_has_no_assert_statements():
    # python -O strips asserts, and every invariant must still hold under it:
    # a check is an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert not found, found


KERNEL_CLASSES = {"OracleKernel", "AsymptoticKernel"}


def calls_to(path: Path, names: set[str]) -> list[tuple[str | None, int]]:
    """(the dotted names of the defs and classes enclosing it, line) of each
    call in `path` of a name or attribute in `names`."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    calls.append((where, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), None)
    return calls


def test_kernels_are_built_only_by_make_kernel():
    # make_kernel reaches a state by insert, the path the samplers run, so
    # what rho and eta_denominator read is what the samplers execute
    calls = {(path.stem, where, line) for path in sorted(PACKAGE.glob("*.py"))
             for where, line in calls_to(path, KERNEL_CLASSES)}
    inside = {call for call in calls if call[:2] == ("samplers", "make_kernel")}
    assert len(inside) == len(KERNEL_CLASSES)
    assert calls == inside, sorted(calls - inside)


def test_oracle_cap_is_read_only_where_it_refuses():
    # the oracle reads the cap whenever it enumerates (`_family`, under
    # enumerate_graphs and exact_uniform_sample); a cap read elsewhere and
    # handed on is a second copy of the oracle's refusal
    reads = sorted((path.stem, where)
                   for path in PACKAGE.glob("*.py") for where, _ in calls_to(path, {"oracle_cap"}))
    assert reads == [("oracle", "_family")]
    handed_on = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and any(kw.arg == "cap" for kw in node.keywords)
        or isinstance(node, ast.arg) and node.arg == "cap"
    ]
    assert not handed_on, handed_on


def test_coupling_imports_nothing_from_the_oracle():
    # the coupling is written against the kernel interface: `make_kernel`
    # picks the kernel, and the step loop never asks which one it has
    sources = []
    for node in ast.walk(ast.parse((PACKAGE / "coupling.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            sources += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            sources += [alias.name for alias in node.names]
    assert "samplers" in sources
    assert not [m for m in sources if "oracle" in m.split(".")], sources


def missing_degseq_names(path: Path) -> list[str]:
    """The names `path` reads from degseq that the package does not have:
    dotted reads off a name bound to a degseq module, names imported from
    one, and (module, "name") tuples such as `tracing.WRAPPED`'s entries,
    which `Tracer.install` looks up with getattr."""
    tree = ast.parse(path.read_text(), str(path))
    modules, missing = {}, []

    def need(obj, name, node):
        if not hasattr(obj, name):
            missing.append(f"{path.name}:{node.lineno} {obj.__name__}.{name}")
        return getattr(obj, name, None)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "degseq":
                    # `import a.b` binds a, `import a.b as c` binds a.b
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    modules[alias.asname or target] = importlib.import_module(target)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("degseq"):
            home = importlib.import_module(node.module)
            for alias in node.names:
                obj = need(home, alias.name, node)
                if inspect.ismodule(obj):
                    modules[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain, root = [], node
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            obj = modules.get(root.id) if isinstance(root, ast.Name) else None
            for name in reversed(chain):
                if obj is None:
                    break
                obj = need(obj, name, node)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            first, second = node.elts[:2]
            if (isinstance(first, ast.Name) and first.id in modules
                    and isinstance(second, ast.Constant) and isinstance(second.value, str)):
                need(modules[first.id], second.value, node)
    return sorted(set(missing))


def test_benchmarks_read_only_names_degseq_has():
    # the benchmark scripts pin these names: deleting one breaks a workload
    # or `--trace 1` only when that script runs
    for info in pkgutil.iter_modules(degseq.__path__):
        importlib.import_module(f"degseq.{info.name}")
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert len(scripts) > 5
    missing = [name for path in scripts for name in missing_degseq_names(path)]
    assert not missing, missing


def test_benchmarks_instance_members_exist():
    # members the scripts reach through instances, which the walk above cannot follow
    assert callable(AliasTable((1, 1)).sample)  # worker.probe
    assert callable(SymmetricProbMatrix.full(3, 0.5).to_dense)  # replay.Oracle
    assert callable(CouplingTrace.to_json_dict)  # replay.Couple, fidelity
    assert SamplerDiagnostics().restarts == 0  # replay.SampleGnd, tracing
    assert "diagnostics" in inspect.signature(seq_sample_d).parameters  # replay.SampleGnd

"""Every public top-level function and class of the package, every public
method of a public class and every public module-level constant has a
production caller or reader, no module imports another module's private
names, and only `poly` reads the term dict of a polynomial.

A name passes when `src/signedchrom` refers to it outside its own
definition, or when `bench/` imports it or names it in a string (the tracer
looks functions up by the names in its tables).  An attribute access in
`bench/` is no caller: `"".join` there says nothing of a `join` in the
package.  Methods match by name: a method passes when any other method or
statement reads an attribute of that name from a name or a dotted name.  A
constant, an upper-case name assigned at a module's top level, passes when a
statement other than its own assignment reads it.  Anything else is API that
nothing reaches: delete it, or move it to `tests/oracles.py` when only tests
need it.  The same holds for private top-level functions and upper-case
constants: a helper that only tests read is left over from a route that
went.  A private name imported across modules means two modules know one
format; each such import is listed below with its reason.  Every other
module works with polynomials through `BiPoly`'s own operations, so the
term-dict format can change in `poly` alone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (importing module, module.private name, why it may cross the boundary)
PRIVATE_IMPORTS = ()


def _names(tree: ast.AST) -> set[str]:
    """The names and imported names the tree uses, and the attributes it
    reads from a name or a dotted name: `verify.search_cochromatic` and
    `pair.even.substitute_y` use an attribute, `", ".join` and
    `("," + inner).join` use no `join` of the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _public(nodes) -> list:
    return [
        node for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _package():
    """(public definitions, uses).  The definitions are the public top-level
    functions and classes and the public methods of public classes.  Each
    use is (top-level statement, part, names the part uses); a class is split
    into its header and its members, so a method's own body is no caller."""
    public, uses = [], []
    for path in sorted((ROOT / "src" / "signedchrom").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            parts = [stmt]
            if isinstance(stmt, ast.ClassDef):
                parts = [*stmt.bases, *stmt.keywords, *stmt.decorator_list, *stmt.body]
                if not stmt.name.startswith("_"):
                    public += _public(stmt.body)
            public += _public([stmt])
            uses += [(stmt, part, _names(part)) for part in parts]
    return public, uses


def _bench_names() -> set[str]:
    """The names `bench/` imports and the strings it holds."""
    out = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                out.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_public_name_is_reached():
    public, uses = _package()
    bench = _bench_names()
    unreached = sorted(
        d.name for d in public
        if d.name not in bench
        and not any(d.name in names for stmt, part, names in uses if d is not stmt and d is not part)
    )
    assert unreached == [], "no caller in src/ or bench/; delete it or move it to tests/oracles.py"


def _constants(stmt: ast.stmt, private: bool = False) -> list[str]:
    """The public (or the private) upper-case names a top-level statement
    assigns."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [
        node.id for target in targets for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id.isupper() and node.id.startswith("_") == private
    ]


def test_every_public_constant_is_read():
    _, uses = _package()
    bench = _bench_names()
    unread = sorted(
        name for stmt, _, _ in uses for name in _constants(stmt)
        if name not in bench
        and not any(name in names for other, _, names in uses if other is not stmt)
    )
    assert unread == [], "no reader in src/ or bench/; delete it or move it to tests/oracles.py"


def _private_names(stmt: ast.stmt) -> list[str]:
    """The private function or upper-case constants a top-level statement
    defines."""
    if isinstance(stmt, ast.FunctionDef):
        private = stmt.name.startswith("_") and not stmt.name.startswith("__")
        return [stmt.name] if private else []
    return _constants(stmt, private=True)


def test_every_private_top_level_name_is_read():
    _, uses = _package()
    bench = _bench_names()
    unread = sorted(
        name for stmt, _, _ in uses for name in _private_names(stmt)
        if name not in bench
        and not any(name in names for other, _, names in uses if other is not stmt)
    )
    assert unread == [], "no reader in src/ or bench/; delete it or move it to tests/"


def _private_imports() -> set[tuple[str, str]]:
    """(importing module, module.name) for each `from .module import _name`
    in the package."""
    out = set()
    for path in sorted((ROOT / "src" / "signedchrom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        out.add((path.stem, f"{node.module}.{alias.name}"))
    return out


def test_no_private_imports_across_modules():
    found = _private_imports()
    listed = {(importer, name) for importer, name, _ in PRIVATE_IMPORTS}
    assert sorted(found - listed) == [], "import a public name, or list the pair with a reason"
    assert sorted(listed - found) == [], "no longer imported; drop it from PRIVATE_IMPORTS"


def test_only_poly_reads_the_term_dict():
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in (ROOT / "src" / "signedchrom").glob("*.py") if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_terms"
    )
    assert readers == [], "use BiPoly's operations; only poly.py knows the term dict"


def test_equivalence_has_one_backtracking_search():
    """Isomorphism, automorphisms and switching isomorphism share one search
    core in `equivalence`; a second function that calls itself there is a
    second search loop."""
    tree = ast.parse((ROOT / "src" / "signedchrom" / "equivalence.py").read_text(encoding="utf-8"))
    recursive = sorted(
        f"{node.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    )
    assert len(recursive) == 1, f"one search core, found {recursive}"

"""Guard: the package holds no code that only the tests reach, and no data nobody reads."""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "chcrown"

#: click calls the command callbacks; nothing in the package names them
CLI_COMMANDS = {"cli.verify_cmd", "cli.export", "cli.table1_cmd", "cli.report"}

#: a Sphinx cross-reference such as :meth:`sample` or :func:`core.det3`
_ROLE = re.compile(r":(?:func|meth|class|attr):`~?([\w.]+)`")


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield sub, f"{node.name}.{sub.name}"


def _references(tree):
    """(name, line) of every identifier, attribute and docstring cross-reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for target in _ROLE.findall(node.value):
                yield target.split(".")[-1], node.lineno


def test_every_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        for node, qualname in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in own for m, line in refs.get(node.name, ())):
                unused.append(f"{module}.{qualname}")
    assert sorted(set(unused) - CLI_COMMANDS) == []


def _module_names(tree):
    """(name, is_import) of every module-level assignment target and import."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, False


def test_every_module_level_name_is_read_in_the_package():
    # an import must be read in its own module; a constant in its own module,
    # or in another one as an attribute or an imported name.  ``__init__``
    # only re-exports, so its own names are not checked, but its imports
    # count as reads of the names they export
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loads, outside = {}, {}
    for module, tree in trees.items():
        loads[module] = {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        outside[module] = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        outside[module] |= {alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, is_import in _module_names(tree):
            read = name in loads[module] or (not is_import and any(
                name in names for other, names in outside.items() if other != module))
            if not read:
                unread.append(f"{module}.{name}")
    assert unread == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
    return name == "dataclass"


def _dataclass_fields(tree):
    """(class, field) of every annotated field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def test_every_dataclass_field_is_read():
    # a read is any attribute load of the field's name in src/ or tests/;
    # being name-based, a field whose name another attribute shares (say a
    # ``trace`` field beside ``GroupElement.trace``) passes unseen
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    reads = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls}.{name}"
              for path in sorted(SRC.glob("*.py"))
              for cls, name in _dataclass_fields(ast.parse(path.read_text()))
              if name not in reads]
    assert unread == []

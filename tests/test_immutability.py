"""What `frozen=True` used to enforce, checked on the library's source.

The value classes are plain dataclasses, not frozen ones: a frozen
`__init__` pays one `object.__setattr__` per field, and each step of an
exploration builds many values.  Immutability is a contract the library
keeps, and this test reads every module of `cubex` to check it.  An
attribute is assigned only

- to fill a cache slot declared with `cached_field()`, or
- to `self` inside the `__init__` of a class that is not a dataclass
  (the exceptions, `CubeComplex`, `HoughtonSystem`).

So no public field of a value (`table`, `elements`, `basin`, `gain`,
`words`, `points`, `tails`, `exceptions`, ...) is assigned after
construction, no attribute is deleted, and nothing calls `setattr`.
No dataclass is declared frozen either, so there is one rule and not
two.
"""

import ast
import dataclasses
import importlib
import pathlib

import cubex

SOURCES = sorted(pathlib.Path(cubex.__file__).parent.glob("*.py"))


def parsed():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES}


def dataclass_decorator(cls):
    """The `@dataclass` or `@dataclass(...)` node on a class, or None."""
    for d in cls.decorator_list:
        name = d.func if isinstance(d, ast.Call) else d
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return d
    return None


def dataclass_nodes(trees):
    return [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and dataclass_decorator(node)
    ]


def declared_fields(trees):
    """(cached, public): the field names declared with `cached_field()`
    and the other field names, over every dataclass."""
    cached, public = set(), set()
    for cls in dataclass_nodes(trees):
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            value = stmt.value
            is_cache = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "cached_field"
            )
            (cached if is_cache else public).add(stmt.target.id)
    return cached, public


def attribute_writes(tree):
    """(node, class, function) for each attribute stored or deleted and
    each call of a `setattr`-like function, with the class and the
    function that enclose it (None at the top)."""
    found = []

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, None)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, cls, child)
                continue
            if isinstance(child, ast.Attribute) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                found.append((child, cls, func))
            if isinstance(child, ast.Call) and ast.unparse(
                child.func
            ).rstrip("_").endswith(("setattr", "delattr")):
                found.append((child, cls, func))
            visit(child, cls, func)

    visit(tree, None, None)
    return found


def allowed(node, cls, func, cached):
    if not isinstance(node, ast.Attribute) or isinstance(node.ctx, ast.Del):
        return False
    if node.attr in cached:
        return True
    return (
        cls is not None
        and not dataclass_decorator(cls)
        and func is not None
        and func.name == "__init__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def test_only_caches_are_assigned_after_construction():
    trees = parsed()
    cached, public = declared_fields(trees)
    assert cached and public
    # A cache name never names a public field, so a store to a cache
    # name never writes a public field of another class.
    assert not cached & public
    bad = [
        f"{module}.py:{node.lineno}: {ast.unparse(node)}"
        for module, tree in trees.items()
        for node, cls, func in attribute_writes(tree)
        if not allowed(node, cls, func, cached)
    ]
    assert not bad, bad


def runtime_dataclasses():
    for path in SOURCES:
        name = "cubex" if path.stem == "__init__" else f"cubex.{path.stem}"
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
            ):
                yield value


def test_caches_are_the_fields_outside_init():
    """The names the source declares with `cached_field()` are exactly
    the fields the running classes leave out of `__init__`."""
    cached, _ = declared_fields(parsed())
    outside = {
        f.name
        for cls in runtime_dataclasses()
        for f in dataclasses.fields(cls)
        if not f.init
    }
    assert outside == cached


def test_no_dataclass_is_frozen():
    nodes = dataclass_nodes(parsed())
    for cls in nodes:
        d = dataclass_decorator(cls)
        keywords = d.keywords if isinstance(d, ast.Call) else []
        assert "frozen" not in {k.arg for k in keywords}, cls.name
    classes = list(runtime_dataclasses())
    assert len(classes) == len(nodes)
    for cls in classes:
        assert not cls.__dataclass_params__.frozen, cls

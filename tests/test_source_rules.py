"""Rules on the package source that keep every input behind `data_io`'s
front door: JSON is parsed only by `data_io.parse_json`, every file
opened as text names its encoding, so a file written under one locale
reads under another, and JSON is written strict, so the program reads
what it writes. Every error type the package defines is raised."""

import ast
import pathlib

import lanenas

SOURCES = sorted(pathlib.Path(lanenas.__file__).parent.glob("*.py"))


def calls(tree):
    """(enclosing function name, call node) of every call in `tree`."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield func, child
                yield from walk(child, func)
    yield from walk(tree, None)


def dotted(node):
    """`json.loads` for the callee `json.loads`, `open` for `open`."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else "?"


def test_sources_found():
    assert {"data_io.py", "cli.py", "search_engine.py"} <= {p.name for p in SOURCES}


def test_json_is_parsed_only_by_parse_json():
    found = []
    for path in SOURCES:
        for func, call in calls(ast.parse(path.read_text(encoding="utf-8"))):
            if dotted(call.func) in ("json.load", "json.loads"):
                found.append((path.name, func))
    assert found == [("data_io.py", "parse_json")]


def test_every_text_mode_open_names_an_encoding():
    opens, missing = 0, []
    for path in SOURCES:
        for func, call in calls(ast.parse(path.read_text(encoding="utf-8"))):
            if dotted(call.func) not in ("open", "os.fdopen"):
                continue
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
            opens += 1
            if not any(k.arg == "encoding" for k in call.keywords):
                missing.append(f"{path.name}:{call.lineno} in {func}")
    assert opens >= 8
    assert missing == []


def test_every_json_dump_refuses_nan_and_infinity():
    """`json` writes NaN and Infinity, which are not JSON, unless told not to."""
    dumps, missing = 0, []
    for path in SOURCES:
        for func, call in calls(ast.parse(path.read_text(encoding="utf-8"))):
            if dotted(call.func) not in ("json.dump", "json.dumps"):
                continue
            dumps += 1
            if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in call.keywords):
                missing.append(f"{path.name}:{call.lineno} in {func}")
    assert dumps >= 12
    assert missing == []


def test_every_error_class_is_raised():
    """An error type that nothing raises, one folded into another say, is
    not left defined: every class of `errors.py` is raised by name."""
    errors = next(p for p in SOURCES if p.name == "errors.py")
    defined = {node.name for node in ast.parse(errors.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(dotted(exc).rpartition(".")[2])
    assert len(defined) >= 7
    assert sorted(defined - raised) == []


# perfbench's tracer is the one reader of `_atomic_write` until the
# program times its own stages
UNREACHED_ALLOWED = {"data_io._atomic_write"}


def test_every_top_level_function_and_class_is_named_elsewhere():
    """A helper that nothing reaches is not left behind: every top-level
    function and class of the package is named outside its own
    definition, as a name, an attribute or an import (a re-export in
    `__init__.py` counts); a word in a string or docstring does not."""
    defined, named = [], set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append((path.stem, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                if name != own:
                    named.add(name)
    assert len(defined) >= 100
    assert sorted(f"{module}.{name}" for module, name in defined
                  if name not in named) == sorted(UNREACHED_ALLOWED)

"""Static checks on the layout of the pellrsa package."""

import ast
from pathlib import Path

import pytest

import pellrsa
from pellrsa import errors

MODULES = sorted(Path(pellrsa.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names a module imports and never reads; a re-export counts as unused."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport sys\nfrom math import gcd, lcm\nprint(sys.argv, gcd)\n"
    assert unused_imports(source) == [(1, "os"), (3, "lcm")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_grammar_newer_than_python_3_10_is_refused():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(source, feature_version=(3, 10))


# pyproject's requires-python is 3.10; the parser's feature_version flags
# newer grammar, not newer library calls
@pytest.mark.parametrize(
    "path",
    MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "pellbench").glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_sources_parse_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(), feature_version=(3, 10))


def raised_names(source):
    """Names of the exceptions a module's raise statements construct or re-raise."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_raised_names_are_found():
    source = "try:\n    raise A('x')\nexcept A:\n    raise\nraise errors.B from None\nraise C\n"
    assert raised_names(source) == {"A", "B", "C"}


def test_every_error_type_is_raised():
    subclasses = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.PellRsaError)
    } - {"PellRsaError"}
    raised = set().union(*(raised_names(path.read_text()) for path in MODULES))
    assert sorted(subclasses - raised) == []


def int_calls_with_base(source):
    """Line numbers of the int() calls in a module that pass a base."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and (len(node.args) > 1 or any(kw.arg == "base" for kw in node.keywords))
    )


def test_int_calls_with_base_are_found():
    source = "int(x)\nint(x, 16)\nint(x, base=10)\nfloat(x)\nint(\n    y, 2\n)\n"
    assert int_calls_with_base(source) == [2, 3, 5]


def test_only_keyfmt_reads_numbers_from_text():
    # one grammar for numbers in key files and CLI flags: keyfmt.parse_number
    readers = [path.name for path in MODULES if int_calls_with_base(path.read_text())]
    assert readers == ["keyfmt.py"]


def uncalled_functions(sources):
    """Public module-level functions of the sources that no call in them names."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    return sorted(defined - called)


def test_uncalled_functions_are_found():
    sources = [
        "def a():\n    b()\n    m.c()\ndef b():\n    pass\n",
        "def c():\n    pass\ndef d():\n    pass\ndef _e():\n    pass\n",
    ]
    assert uncalled_functions(sources) == ["a", "d"]


# Entry points for callers outside the library: the tests' paper-definition
# oracles and the benchmark.  A new public function that nothing in the
# package calls must be listed here, or called.
UNCALLED = [
    "param_pow",
    "psi",
    "random_message",
    "redei_pow",
]


def test_public_functions_the_package_never_calls_are_listed():
    assert uncalled_functions([path.read_text() for path in MODULES]) == UNCALLED


def calls_by_function(source, prefix, callee):
    """{name: whether its body calls callee by name} for each module-level
    function of a source whose name starts with prefix."""
    return {
        node.name: any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == callee
            for call in ast.walk(node)
        )
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)
    }


def test_calls_by_function_are_found():
    source = "def load_a(t):\n    return _load(t)\ndef load_b(t):\n    return t\ndef dump_a(t):\n    _load(t)\n"
    assert calls_by_function(source, "load_", "_load") == {"load_a": True, "load_b": False}


def test_every_keyfmt_loader_goes_through_load():
    # one rule for canonical text: a loader accepts only what its dump writes
    source = (Path(pellrsa.__file__).parent / "keyfmt.py").read_text()
    loaders = {"load_public_key": True, "load_private_key": True, "load_ciphertext": True}
    assert calls_by_function(source, "load_", "_load") == loaders

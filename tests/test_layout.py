"""Guards on the source tree, read as text: the package imports nothing
outside the standard library, spells each of its messages once, and each
helper the test modules share is defined once, in support.py."""

import ast
import collections
import os
import re
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "superpbw")


def _parsed(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _called(node):
    """The name a call node calls, `f` for both f(...) and m.f(...)."""
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_the_package_imports_only_the_standard_library():
    """numpy and sympy may be installed, so only this catches a stray import."""
    offenders = []
    for root, _, files in os.walk(PACKAGE):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            for node in ast.walk(_parsed(path)):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                offenders += ["%s:%d imports %s" % (name, node.lineno, m) for m in modules
                              if m.split(".")[0] not in sys.stdlib_module_names | {"superpbw"}]
    assert not offenders


def test_each_message_of_the_package_has_one_owner():
    """A string literal of the package that holds a % format and has at
    least 12 characters is spelled once: a second spelling of a message is a
    rule that two places must keep in step."""
    places = collections.defaultdict(list)
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        for node in ast.walk(_parsed(os.path.join(PACKAGE, name))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and len(node.value) >= 12 and re.search(r"%[-+ #0-9.]*[a-z]", node.value)):
                places[node.value].append("%s:%d" % (name, node.lineno))
    assert not {text: where for text, where in places.items() if len(where) > 1}


def test_each_shared_test_helper_has_one_owner():
    """No test module defines a function named as one of support.py's, or
    builds a preset's engine by hand: `verify.load_engine` and `get_engine`
    do that."""
    helpers = {node.name for node in _parsed(os.path.join(TESTS, "support.py")).body
               if isinstance(node, ast.FunctionDef)}
    offenders = []
    for name in sorted(os.listdir(TESTS)):
        if not name.endswith(".py") or name == "support.py":
            continue
        for node in ast.walk(_parsed(os.path.join(TESTS, name))):
            if isinstance(node, ast.FunctionDef) and node.name in helpers:
                offenders.append("%s:%d defines %s" % (name, node.lineno, node.name))
            elif (_called(node) == "Engine" and len(node.args) >= 2
                  and _called(node.args[0]) == "preset"
                  and _called(node.args[1]) == "monoid_preset"):
                offenders.append("%s:%d builds Engine(preset(...), monoid_preset(...))"
                                 % (name, node.lineno))
    assert not offenders

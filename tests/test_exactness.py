"""Exactness guard: no module of ``omstrata`` computes in floating point.

Every number the library computes with is an ``int`` or a ``Fraction``, and
``/`` on two ints silently gives a float.  The test walks the syntax tree of
every module of the package and fails on a float literal, a call to
``float`` or ``round``, or a true division ``/`` (``/=`` included), unless
``ALLOWED`` lists that construct for the enclosing function.  A function is
named by its qualified name in its module (``emit_figure.sx`` for a nested
one); code outside every function is ``<module>``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import omstrata

PACKAGE = Path(omstrata.__file__).parent

# (module, enclosing function) -> (allowed construct, why it stays exact).
ALLOWED = {
    ("cli", "_cmd_certificate"): ("/", "joins Paths: the SVG directory and a figure's name"),
    ("serialization", "<module>"): ("/", "joins Paths: the schema directory"),
    ("serialization", "_schema_file"): ("/", "joins Paths: the schema directory and a file name"),
    ("geometry", "perspective_normalize"): ("/", "divides Fraction coordinates"),
    ("figures", "emit_figure"): ("/", "divides Fractions for the figure's scale"),
    ("figures", "emit_figure.sx"): ("float", "formats an SVG coordinate; no check reads it"),
    ("figures", "emit_figure.sy"): ("float", "formats an SVG coordinate; no check reads it"),
    ("linalg", "_eliminate"): ("/", "divides by a pivot made a Fraction"),
    ("linalg", "solve_linear"): ("/", "divides by a pivot made a Fraction"),
}


def _inexact_sites(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing function, construct, line) of each float literal, call to
    ``float`` or ``round`` and true division in ``tree``."""
    sites = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            name = ".".join(scope) or "<module>"
            if isinstance(child, ast.Constant) and type(child.value) in (float, complex):
                sites.append((name, "float literal", child.lineno))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                sites.append((name, "/", child.lineno))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in ("float", "round")):
                sites.append((name, child.func.id, child.lineno))
            walk(child, inner)

    walk(tree, ())
    return sites


def _package_sites() -> dict[tuple[str, str], list[tuple[str, int]]]:
    """Every inexact site of the package, by (module, enclosing function)."""
    found: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, construct, line in _inexact_sites(tree):
            found.setdefault((module, function), []).append((construct, line))
    return found


def test_no_inexact_arithmetic_outside_the_allow_list():
    unexpected = [
        f"{module}.py:{line} in {function}: {construct}"
        for (module, function), sites in _package_sites().items()
        for construct, line in sites
        if ALLOWED.get((module, function), (None,))[0] != construct
    ]
    assert not unexpected, "inexact arithmetic: " + "; ".join(unexpected)


def test_every_allowed_site_still_exists():
    found = _package_sites()
    stale = [key for key, (construct, _) in ALLOWED.items()
             if construct not in {c for c, _ in found.get(key, ())}]
    assert not stale, f"allow-list entries with no site left: {stale}"


def test_the_walk_finds_each_construct():
    source = (
        "x = 0.5\n"
        "def f(a, b):\n"
        "    def g():\n"
        "        return float(a)\n"
        "    a /= 2\n"
        "    return round(a / b)\n"
    )
    assert sorted(_inexact_sites(ast.parse(source))) == [
        ("<module>", "float literal", 1),
        ("f", "/", 5),
        ("f", "/", 6),
        ("f", "round", 6),
        ("f.g", "float", 4),
    ]

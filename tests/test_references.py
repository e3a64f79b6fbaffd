"""Every public module-level definition of the package is reached from somewhere.

A reference is a name or attribute in the package's code, a name in the
README library example, a console entry point, or a target of perfbench's
tracer (read as text, not imported).  An import alone or a docstring
mention is not a reference: a definition only the tests call belongs in
``tests/oracles.py``.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jcgraph"


def used_names(tree) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def referenced() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        names |= used_names(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme[readme.index("## Library example"):],
                        re.S).group(1)
    names |= used_names(ast.parse(example))
    names |= set(re.findall(r'"jcgraph\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    targets = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    names |= {part for _, attr, _ in ast.literal_eval(targets) for part in attr.split(".")}
    return names


def test_every_public_definition_is_referenced():
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    unreferenced = sorted(defined - referenced())
    assert not unreferenced, f"only the tests reach {unreferenced}"

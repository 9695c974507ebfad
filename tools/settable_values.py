"""Print the number of settable values in src/seqent: parameters with a
default plus dataclass fields, counted from the syntax tree.

Run from the root of a checkout: ``python3 tools/settable_values.py``.
"""
import ast
import pathlib


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


count = 0
for path in sorted(pathlib.Path("src/seqent").glob("*.py")):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
print(f"{count} settable values (defaulted parameters and dataclass fields) in src/seqent")

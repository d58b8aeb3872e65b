"""Print the raw and code lines of each module of a source directory.

Code lines drop docstrings and comments: each module is parsed, the
docstring of the module and of every class and function is removed, and
the rest is normalised by `ast.unparse`, so a change counts the same
however it is formatted. Code lines include the blank lines that
`ast.unparse` puts between definitions.

    python tests/code_lines.py            # src/lnplan
    python tests/code_lines.py DIR        # another tree's modules, to compare
"""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lnplan"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of the source without docstrings, unparsed."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, _SCOPES) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            node.body = body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def main(root: Path) -> None:
    rows = []
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, len(text.splitlines()), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>6}  {code:>6}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else SOURCE)

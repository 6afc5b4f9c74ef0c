#!/usr/bin/env python3
"""Count the size of the package's surface from its source.

    python scripts/surface_count.py > surface.json

The package is read from the ``src/`` of the tree this script lives in, so
``A/scripts/surface_count.py`` counts tree A.  Nothing is imported: every
counter comes from the files' text and syntax trees.  One JSON object holds

    src_lines          lines of the .py files under src/
    all_names          names listed in __all__ assignments
    defaulted_params   parameters with a default value, over every function
                       and lambda (positional and keyword-only)
    dataclass_fields   annotated fields of the classes decorated with
                       @dataclass
"""

import ast
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COUNTERS = ("src_lines", "all_names", "defaulted_params", "dataclass_fields")


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated with ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def surface(src: Path = SRC) -> dict:
    """The four counters over every .py file under ``src``."""
    counts = dict.fromkeys(COUNTERS, 0)
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        counts["src_lines"] += len(text.splitlines())
        _count_nodes(ast.parse(text), counts)
    return counts


def _count_nodes(tree: ast.Module, counts: dict) -> None:
    """Add the syntax-tree counters of one file to ``counts``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            counts["all_names"] += len(node.value.elts)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            counts["defaulted_params"] += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["dataclass_fields"] += sum(isinstance(s, ast.AnnAssign)
                                              for s in node.body)


def main() -> int:
    json.dump(surface(), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

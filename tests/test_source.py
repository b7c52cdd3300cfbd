"""Guards on the package source: no private helper is dead."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cknsym"


def _references(node: ast.AST) -> Counter:
    """Names that node reads: variables, attributes and imported names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level function, class or assigned name and
    each method whose name starts with one underscore, not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``file: name`` for each private definition that no code outside its
    own definition reads, over all the sources (file name -> text)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(f"{file}: {name}" for file, tree in trees.items()
                  for name, node in _private_definitions(tree)
                  if name.startswith("_") and not name.startswith("__")
                  and read[name] - _references(node)[name] <= 0)


def test_every_private_helper_in_src_is_read_elsewhere_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    assert dead_private_names(sources) == []


def test_the_guard_finds_dead_helpers():
    """A helper read only by itself, or by no one, is dead; one read by
    another module, through an import or an attribute, is not."""
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n"
                 "def _walk(k):\n    return _walk(k - 1) if k else _LIMIT\n"
                 "def _used():\n    return 1\n"
                 "class _Pass:\n    def _kept(self):\n        return 1\n"
                 "    def _spare(self):\n        return self._kept()\n"
                 "    def __init__(self):\n        pass\n"),
        "b.py": "from .a import _used\nimport a\nprint(_used(), a._Pass)\n",
    }
    assert dead_private_names(sources) == ["a.py: _SPARE", "a.py: _spare", "a.py: _walk"]

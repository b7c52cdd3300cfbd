"""Guards on the package source: no private helper is dead, and no
docstring or comment names code that is gone."""

import ast
import builtins
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np

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


def _resolves(name: str, known: set[str]) -> bool:
    """A dotted name resolves when it is a numpy attribute after ``np.``, or
    when each of its parts is a known name."""
    parts = name.split(".")
    if parts[0] != "np":
        return all(part in known for part in parts)
    obj = np
    for part in parts[1:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def stale_doc_names(sources: dict[str, str]) -> list[str]:
    """``file: name`` for each double-backticked dotted name, or callee of a
    call form, in a docstring or comment of the sources (file name -> text)
    that names nothing: no name the sources define or read, no builtin, no
    numpy attribute after ``np.`` and no module of the package.  Other
    double-backticked text, such as a formula or a document line, is not
    read."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    known = set(dir(builtins)) | {Path(file).stem for file in sources} | {"cknsym"}
    texts = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            known.update(value for field in ("id", "attr", "name", "arg", "asname")
                         if isinstance(value := getattr(node, field, None), str))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append((file, ast.get_docstring(node, clean=False) or ""))
        texts.extend((file, token.string) for token
                     in tokenize.generate_tokens(io.StringIO(sources[file]).readline)
                     if token.type == tokenize.COMMENT)
    stale = set()
    for file, text in texts:
        for span in re.findall(r"``(.+?)``", text, re.S):
            named = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", " ".join(span.split()))
            if named and not _resolves(named.group(1), known):
                stale.add(f"{file}: {named.group(1)}")
    return sorted(stale)


def test_every_name_a_docstring_or_comment_quotes_in_src_exists():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert stale_doc_names(sources) == []


def test_the_guard_finds_stale_names_in_docs():
    """Names defined or read in either module, builtins, numpy attributes and
    the package's modules resolve, in docstrings and comments, bare, dotted
    or called; formulas are not read; anything else is stale."""
    sources = {
        "a.py": ('"""Uses ``b.helper``, ``len(x)``, ``np.linalg.eigh`` and ``cknsym.b``;\n'
                 'not ``gone(y)``, ``np.nothing`` or ``b.missing``; ``x + 1`` is a formula."""\n'
                 "from .b import helper\n"
                 "def f(x):  # reads ``helper`` and ``kept.attr``, not ``old_name``\n"
                 "    return helper(x).attr\n"),
        "b.py": ("def helper(y):\n"
                 '    """``f`` and ``kept`` are read elsewhere; ``C`` is not."""\n'
                 "    kept = y\n"
                 "    return kept\n"),
    }
    assert stale_doc_names(sources) == ["a.py: b.missing", "a.py: gone", "a.py: np.nothing",
                                        "a.py: old_name", "b.py: C"]

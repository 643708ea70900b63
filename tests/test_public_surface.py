"""Every export of ``rkhsquad`` has a caller outside the tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rkhsquad"

# Exports kept without a caller in the library, the benchmark or the README.
ALLOWED = {
    "smolyak_rule": "the sparse-grid rule of the MDM component oracle and of the tractability experiment (item 6)",
    "empirical_info_complexity": "the information-complexity estimate of the tractability experiment (item 6)",
    "tensor_optimal_wce": "the tensor-product optimal error of acceptance criterion 5",
    "sigma_from_beta": "inverse of beta_from_sigma, used by acceptance criterion 4",
    "transfer_sampling_to_gaussian": "inverse of transfer_sampling_to_hermite, the other half of the twin map",
}


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _references(tree, skip=frozenset()) -> set:
    """Names and attributes read in ``tree``, outside the definitions named in ``skip``
    or defined along the way (a definition does not call itself)."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        skip = skip | {tree.name}
    out = set()
    if isinstance(tree, ast.Name):
        out.add(tree.id)
    elif isinstance(tree, ast.Attribute):
        out.add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        out |= _references(child, skip)
    return out - skip


def _callers() -> set:
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    return set().union(*(_references(ast.parse(text)) for text in sources))


def test_every_export_has_a_caller():
    assert _exports() - _callers() - set(ALLOWED) == set()


def test_allowed_names_are_uncalled_exports():
    # an entry that gained a caller, or is no longer exported, leaves the list
    assert set(ALLOWED) <= _exports() - _callers()

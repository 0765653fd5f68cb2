"""``src/`` holds only the program: every top-level function and class of
``dqe`` is named somewhere in ``src/`` outside its own definition.  A
definition that only tests reach is a reference and belongs in
tests/oracles.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dqe"

# perfbench/tracing.py patches these by name, so a traced run needs them
UNREACHED_ALLOWED = {
    "geometric_sums",  # until ROADMAP item 1
    "expected_state_general",  # until ROADMAP item 1
    "noisy_sweep_success_transfer",  # until ROADMAP item 1
}


def _unreached():
    """Names of top-level definitions no other top-level statement names."""
    tops = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    named = {}
    for top in tops:
        for n in ast.walk(top):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                named.setdefault(name, set()).add(id(top))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        top.name
        for top in tops
        if isinstance(top, defs) and not named.get(top.name, set()) - {id(top)}
    }


def test_every_definition_has_a_caller_in_src():
    assert _unreached() == UNREACHED_ALLOWED

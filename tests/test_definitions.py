"""Every top-level definition in the package is read by the package or
wrapped by the benchmark's tracer, or it is allowed below with the reason
it belongs in ``src/`` although only tests and users call it."""

import ast
from pathlib import Path

from test_tracing import tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "boxprod"

ALLOWED = {
    "cli.main": "the console entry point that pyproject.toml names",
    "gadgets.consecutive_ones_function": "builds the necklace predicate the samplers take",
    "gadgets.influence_monte_carlo": "the sampled directional energy of the necklace "
                                     "experiment, beyond the dense cap",
    "gadgets.probability_minus_one": "the sampled Pr[f = -1] of the necklace experiment",
    "influence.main_lemma_check": "the entropy lemma on an arbitrary table; no report "
                                  "checks it another way",
    "isoperimetry.conductance_functional": "the cut-function form the scan's refusal "
                                           "names for graphs beyond the scan",
    "isoperimetry.cut_ratio": "reproduces a reported phi from its witness set",
    "isoperimetry.witness_ratio": "reproduces a reported alpha_hat from its witness",
    "sdp.random_cut_combination": "generates feasible solutions with no triangle "
                                  "violation to lift",
    "sdp.random_feasible_sdp": "generates feasible basic SDP solutions to lift",
}


def unread_definitions(sources: dict) -> list:
    """``module.name`` of each top-level function, class or assigned name
    in ``sources`` (module name -> source) that no module reads outside
    the definition itself; an imported name counts as read."""
    defined, read = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            names = [own] if own else [t.id for t in getattr(top, "targets", [])
                                       if isinstance(t, ast.Name)]
            defined += [(module, name) for name in names]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.asname or node.name
                else:
                    continue
                if name != own:
                    read.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_checker_flags_an_unread_definition():
    sources = {"a": "LIMIT = 3\ndef used():\n    return LIMIT\ndef lone():\n    return lone()\n",
               "b": "from .a import used\nclass Spare:\n    pass\n"}
    assert unread_definitions(sources) == ["a.lone", "b.Spare"]


def test_unread_definitions_are_allowed_or_traced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    traced = {f"{module.rsplit('.', 1)[1]}.{attr.split('.')[0]}"
              for entries in tracing.LAYERS.values() for module, attr, _, _ in entries}
    unread = [name for name in unread_definitions(sources) if name not in traced]
    assert unread == sorted(ALLOWED)

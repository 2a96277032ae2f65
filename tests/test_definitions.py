"""Every top-level definition in the package is read by the package or
wrapped by the benchmark's tracer, and every parameter with a default is
passed by some call in the package, or it is allowed below with the
reason it belongs in ``src/`` although only tests and users use it."""

import ast
import math
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


ALLOWED_DEFAULTS = {
    "cli.run(argv)": "the console entry point reads sys.argv; tests and the "
                     "benchmark pass their own",
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


def unpassed_defaults(sources: dict) -> list:
    """``module.function(parameter)`` of each parameter with a default, on
    a function defined in ``sources`` (module name -> source), that no
    call naming the function passes, by keyword or by position.  A method
    is named ``module.Class.method``, and a call ``x.method(...)`` passes
    its arguments after the instance."""
    defaults, positional_passed, keywords_passed = [], {}, {}

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
                continue
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                first = len(positional) - len(args.defaults)
                offset = first - (in_class and not static)
                where = (f"{prefix}{child.name}", child.name)
                defaults.extend((*where, p.arg, offset + i)
                                for i, p in enumerate(positional[first:]))
                defaults.extend((*where, p.arg, None)
                                for p, d in zip(args.kwonlyargs, args.kw_defaults)
                                if d is not None)
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                count = (math.inf if any(isinstance(a, ast.Starred) for a in child.args)
                         else len(child.args))
                positional_passed[name] = max(positional_passed.get(name, 0), count)
                keywords_passed.setdefault(name, set()).update(
                    kw.arg for kw in child.keywords)
            visit(child, prefix, False)

    for module, source in sources.items():
        visit(ast.parse(source), f"{module}.", False)
    unpassed = []
    for qualified, name, param, index in defaults:
        keywords = keywords_passed.get(name, set())
        # a ``**mapping`` argument (keyword None) may pass any parameter
        if not ({param, None} & keywords
                or (index is not None and index < positional_passed.get(name, 0))):
            unpassed.append(f"{qualified}({param})")
    return sorted(unpassed)


def test_checker_flags_an_unpassed_default():
    sources = {"a": "def f(x, y=1, *, z=2, r=3):\n    return x\n"
                    "def g(w=0):\n    return f(1, 2, z=w) + g()\n"
                    "def h(q=0):\n    return h(**{}) + f(0, *[])\n",
               "b": "class C:\n    def m(self, t=1):\n        return t\n"
                    "    def n(self, u=1):\n        return self.m(u)\n"}
    assert unpassed_defaults(sources) == ["a.f(r)", "a.g(w)", "b.C.n(u)"]


def test_every_default_is_passed_by_the_package_or_allowed():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    assert unpassed_defaults(sources) == sorted(ALLOWED_DEFAULTS)

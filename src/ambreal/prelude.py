"""Loader for the prelude of extracted programs (prelude.cfp).

Every definition is parsed, resolved against the earlier ones (so each
entry is a closed term) and compiled once into a shared evaluation graph.
Clause compatibility is checked while parsing, on every case; substituting
closed definitions keeps the checked clauses alpha-equal, so loading does
not check again.  The combinators contain Amb only under binders, so
sharing their nodes across runs never shares a commitment.
"""

from __future__ import annotations

from importlib import resources

from .engine import Engine
from .terms import Term, parse_defs

# not called here: perfbench/spans.py wraps prelude.check_compatibility by
# name to time the compatibility checks
from .terms import check_compatibility  # noqa: F401


class UnknownProgram(KeyError):
    pass


class Prelude:
    def __init__(self, terms):
        self.terms = dict(terms)
        self.engine = Engine()
        self._nodes = {}

    def __contains__(self, name):
        return name in self.terms

    def names(self):
        return list(self.terms)

    def get(self, name) -> Term:
        try:
            return self.terms[name]
        except KeyError:
            raise UnknownProgram(name) from None

    def node(self, name):
        if name not in self._nodes:
            self._nodes[name] = self.engine.load(self.get(name))
        return self._nodes[name]


def prelude_source() -> str:
    return resources.files(__package__).joinpath("prelude.cfp").read_text()


def load_prelude() -> Prelude:
    defs, _main = parse_defs(prelude_source())
    return Prelude(defs)

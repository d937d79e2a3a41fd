"""Model files: a line-oriented sectioned text format for systems and
candidate solutions.

A model file holds one mechanical system and any number of named
candidates::

    [model]
    name = beam
    k = 2
    n = 1
    constant = mu 1 nonzero
    constant = rho 24

    [lagrangian]
    L = "1/2*mu*q2_1^2 + rho*q0_1"

    [section rest]
    s2_1 = "0"
    s3_1 = "0"

    [state origin]
    values = 0, 0

Sections `[section NAME]`, `[oneform NAME]`, `[genfunc NAME]`,
`[family NAME]`, and `[state NAME]` may repeat with distinct names;
candidate names share one namespace.  Expressions are double-quoted
strings in the core grammar, parsed against the base coordinates
(orders 0..k-1) plus the declared constants; a bare ``?`` makes an
opaque placeholder component, named by its canonical key (``s02_1 = ?``
is the placeholder ``s2_1``).  `constant = NAME [VALUE] [nonzero]`
declares a named constant, optionally with a numeric value and a
nonzero promise; it is the one key a block may repeat, and a constant
may not be named like a coordinate or a component key.  Families list
`params = ...` (declared constants), their components (section-style
s-keys or one-form-style a-keys), and optional `inverse.PARAM = "expr"`
recovery rules on phase space.  A model's size is bounded: k*n may be
at most ``MAX_KN`` (24), checked before any coordinate is built.

``dumps(loads(text))`` reproduces any well-formed file up to canonical
expression printing and whitespace; ``loads(dumps(m)) == m`` exactly.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .expr import (
    ZERO,
    Constant,
    Expression,
    ExprError,
    SymbolTable,
    parse as parse_expr,
    placeholder,
    placeholders,
)
from .hamiltonian import PhaseSpace
from .hj import (
    CompleteSolutionFamily,
    GeneratingFunction,
    HJError,
    OneForm,
    Section,
)
from .jets import JetSpace
from .lagrangian import LagrangianError, LagrangianSystem


class ModelError(ValueError):
    """A malformed model file; carries the 1-based source line."""

    def __init__(self, message, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


_HEADER_RE = re.compile(r"^\[([a-z]+)(?:[ \t]+([A-Za-z_][A-Za-z0-9_-]*))?\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)[ \t]*=[ \t]*(.*)$")
_COMPONENT_KEY_RE = re.compile(r"^([sa])([0-9]+)_([0-9]+)$")
_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")

# the largest k*n a model may declare: a check of "?" components takes
# about (k*n)^2 first partials of its k*n placeholders
MAX_KN = 24


class _Candidates(Mapping):
    """A table of named candidates in file order.  A candidate with a "?"
    component is held as the function that builds it until first read."""

    def __init__(self):
        self._entries = {}

    def __setitem__(self, name, entry):
        self._entries[name] = entry

    def __getitem__(self, name):
        if callable(self._entries[name]):
            self._entries[name] = self._entries[name]()
        return self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return repr(dict(self))


@dataclass
class ModelFile:
    """One mechanical system plus named candidate solutions and states."""

    name: str
    k: int
    n: int
    constants: Dict[str, Constant] = field(default_factory=dict)
    lagrangian: Expression = None
    sections: Dict[str, Section] = field(default_factory=dict)
    oneforms: Dict[str, OneForm] = field(default_factory=dict)
    genfuncs: Dict[str, GeneratingFunction] = field(default_factory=dict)
    families: Dict[str, CompleteSolutionFamily] = field(default_factory=dict)
    states: Dict[str, Tuple[float, ...]] = field(default_factory=dict)

    def system(self) -> LagrangianSystem:
        return LagrangianSystem(
            self.k, self.n, self.lagrangian, self.constants.values()
        )

    def candidate(self, name: str):
        """(kind, object) for a named candidate; kinds are
        "section" | "oneform" | "genfunc" | "family"."""
        for kind, table in (
            ("section", self.sections),
            ("oneform", self.oneforms),
            ("genfunc", self.genfuncs),
            ("family", self.families),
        ):
            if name in table:
                return kind, table[name]
        raise ModelError("no candidate named '%s' in this model" % name)

    def state(self, name: str) -> Tuple[float, ...]:
        if name not in self.states:
            raise ModelError("no state named '%s' in this model" % name)
        return self.states[name]


def _strip(line: str) -> str:
    # a # starts a comment unless inside a quoted expression
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


class _Block:
    def __init__(self, kind, name, line):
        self.kind = kind
        self.name = name
        self.line = line
        self.items = []  # (key, value, line)
        self._lines = {}  # a key, or a component's (kind, order, axis) -> its line

    def add(self, key, value, line):
        """One key = value line; a key may repeat only as [model]'s constant."""
        m = _COMPONENT_KEY_RE.match(key)
        same = (m.group(1), int(m.group(2)), int(m.group(3))) if m else key
        if same in self._lines and (self.kind, key) != ("model", "constant"):
            raise ModelError("'%s' repeats the key of line %d" % (key, self._lines[same]), line)
        self._lines[same] = line
        self.items.append((key, value, line))


def _split_blocks(text: str):
    blocks = []
    current = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            current = _Block(m.group(1), m.group(2), num)
            blocks.append(current)
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise ModelError("expected a [header] or key = value", num)
        if current is None:
            raise ModelError("key outside any [section]", num)
        current.add(m.group(1), m.group(2).strip(), num)
    return blocks


def _unquote(value: str, line: int) -> str:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        inner = value[1:-1]
        if '"' in inner:
            raise ModelError("stray quote inside expression", line)
        return inner
    raise ModelError("expected a double-quoted expression, got %r" % value, line)


def _parse_in(table, value: str, line: int) -> Expression:
    try:
        return parse_expr(_unquote(value, line), table)
    except ExprError as err:
        raise ModelError(str(err), line)


def loads(text: str) -> ModelFile:
    """Parse a model file."""
    blocks = _split_blocks(text)
    if not blocks or blocks[0].kind != "model":
        raise ModelError("the file must start with a [model] section",
                         blocks[0].line if blocks else 1)

    head = blocks[0]
    name = None
    k = n = None
    constants: Dict[str, Constant] = {}
    for key, value, line in head.items:
        if key == "name":
            name = value
        elif key in ("k", "n"):
            try:
                number = int(value)
            except ValueError:
                raise ModelError("%s must be an integer" % key, line)
            if number < 1:
                raise ModelError("%s must be at least 1" % key, line)
            if key == "k":
                k = number
            else:
                n = number
        elif key == "constant":
            parts = value.split()
            if not parts:
                raise ModelError("constant needs at least a name", line)
            cname, rest = parts[0], parts[1:]
            nonzero = False
            if rest and rest[-1] == "nonzero":
                nonzero = True
                rest = rest[:-1]
            cvalue = None
            if rest:
                if len(rest) > 1:
                    raise ModelError("constant takes NAME [VALUE] [nonzero]", line)
                try:
                    cvalue = float(rest[0])
                except ValueError:
                    raise ModelError("bad constant value %r" % rest[0], line)
            if cname in constants:
                raise ModelError("constant '%s' declared twice" % cname, line)
            try:
                constants[cname] = Constant(cname, cvalue, nonzero)
            except ExprError as err:
                raise ModelError(str(err), line)
        else:
            raise ModelError("unknown [model] key '%s'" % key, line)
    if name is None:
        raise ModelError("[model] needs a name", head.line)
    if k is None or n is None:
        raise ModelError("[model] needs k and n", head.line)
    if k * n > MAX_KN:
        raise ModelError("k*n = %d is over the size budget of %d" % (k * n, MAX_KN), head.line)

    const_names = tuple(constants)
    base = JetSpace(n, k - 1)
    base_table = SymbolTable(base.coordinates, const_names)
    lag_table = SymbolTable(JetSpace(n, k).coordinates, const_names)
    phase_table = SymbolTable(PhaseSpace(n, k).coordinates, const_names)

    # every "?" component's placeholder, named by the component's
    # canonical key (s02_1 = ? declares s2_1), and the W a check pairs a
    # "?" section with, are declared in one call, when a command first
    # reads a candidate that holds one, and a command that reads none
    # (simulate, derive) declares none.  Until then a "?" component
    # stands as 0 in the candidate that checks the block's keys.
    keys = {"W"}

    @functools.cache
    def unknown():
        names = sorted(keys)
        return dict(zip(names, placeholders(names, base.coordinates)))

    model = ModelFile(name, k, n, constants, sections=_Candidates(),
                      oneforms=_Candidates(), genfuncs=_Candidates())
    taken: Dict[str, int] = {}

    def claim(candidate_name, line):
        if candidate_name is None:
            raise ModelError("this section needs a name", line)
        if candidate_name in taken:
            raise ModelError(
                "candidate name '%s' already used on line %d"
                % (candidate_name, taken[candidate_name]), line)
        taken[candidate_name] = line

    for block in blocks[1:]:
        if block.kind == "model":
            raise ModelError("duplicate [model] section", block.line)
        elif block.kind == "lagrangian":
            if model.lagrangian is not None:
                raise ModelError("duplicate [lagrangian] section", block.line)
            for key, value, line in block.items:
                if key != "L":
                    raise ModelError("unknown [lagrangian] key '%s'" % key, line)
                model.lagrangian = _parse_in(lag_table, value, line)
            if model.lagrangian is None:
                raise ModelError("[lagrangian] needs L", block.line)
        elif block.kind in ("section", "oneform"):
            claim(block.name, block.line)
            cls, table, noun = (
                (Section, model.sections, "section")
                if block.kind == "section"
                else (OneForm, model.oneforms, "one-form"))
            comps, holes = {}, {}
            for key, value, line in block.items:
                m = _COMPONENT_KEY_RE.match(key)
                if not m or m.group(1) != cls._prefix:
                    raise ModelError(
                        "%s components are keyed %s<order>_<axis>"
                        % (noun, cls._prefix), line)
                at = (int(m.group(2)), int(m.group(3)))
                if value == "?":
                    holes[at] = cls._key(*at)
                comps[at] = ZERO if value == "?" else _parse_in(base_table, value, line)
            try:
                candidate = cls(k, n, comps)
            except HJError as err:
                raise ModelError(str(err), block.line)
            keys.update(holes.values())
            table[block.name] = (functools.partial(_filled, candidate, holes, unknown)
                                 if holes else candidate)
        elif block.kind == "genfunc":
            claim(block.name, block.line)
            w = None
            hole = False
            energy = None
            for key, value, line in block.items:
                if key == "w":
                    w = ZERO if value == "?" else _parse_in(base_table, value, line)
                    hole = value == "?"
                elif key == "energy":
                    if value in constants:
                        energy = Expression.constant(value)
                    elif _RATIONAL_RE.match(value):
                        energy = Expression.number(Fraction(value))
                    else:
                        raise ModelError(
                            "energy must be a declared constant or a rational",
                            line)
                else:
                    raise ModelError("unknown [genfunc] key '%s'" % key, line)
            if w is None:
                raise ModelError("[genfunc] needs w", block.line)
            try:
                gf = GeneratingFunction(k, n, w, energy)
            except HJError as err:
                raise ModelError(str(err), block.line)
            model.genfuncs[block.name] = (functools.partial(_filled, gf, None, unknown)
                                          if hole else gf)
        elif block.kind == "family":
            claim(block.name, block.line)
            params = None
            comps = {"s": {}, "a": {}}
            inverse = {}
            for key, value, line in block.items:
                if key == "params":
                    params = tuple(p.strip() for p in value.split(",") if p.strip())
                    for p in params:
                        if p not in constants:
                            raise ModelError(
                                "family parameter '%s' is not a declared "
                                "constant" % p, line)
                    continue
                if key.startswith("inverse."):
                    pname = key[len("inverse."):]
                    inverse[pname] = _parse_in(phase_table, value, line)
                    continue
                m = _COMPONENT_KEY_RE.match(key)
                if not m:
                    raise ModelError("unknown [family] key '%s'" % key, line)
                comps[m.group(1)][(int(m.group(2)), int(m.group(3)))] = _parse_in(
                    base_table, value, line)
            if params is None:
                raise ModelError("[family] needs params", block.line)
            if comps["s"] and comps["a"]:
                raise ModelError(
                    "a family is either a section (s-keys) or a one-form "
                    "(a-keys), not both", block.line)
            try:
                sol = (Section(k, n, comps["s"]) if comps["s"]
                       else OneForm(k, n, comps["a"]))
                model.families[block.name] = CompleteSolutionFamily(
                    params, sol, inverse or None)
            except HJError as err:
                raise ModelError(str(err), block.line)
        elif block.kind == "state":
            claim(block.name, block.line)
            values = None
            for key, value, line in block.items:
                if key != "values":
                    raise ModelError("unknown [state] key '%s'" % key, line)
                try:
                    values = tuple(
                        float(v.strip()) for v in value.split(",") if v.strip()
                    )
                except ValueError:
                    raise ModelError("states are comma-separated numbers", line)
                if not all(map(math.isfinite, values)):
                    raise ModelError("a state's values must be finite", line)
            if not values:
                raise ModelError("[state] needs values", block.line)
            model.states[block.name] = values
        else:
            raise ModelError("unknown section kind '[%s]'" % block.kind,
                             block.line)

    if model.lagrangian is None:
        raise ModelError("the model has no [lagrangian] section", head.line)
    try:
        model.system()
    except LagrangianError as err:
        raise ModelError(str(err), head.line)
    return model


def _filled(candidate, holes, unknown):
    """``candidate`` with the placeholders ``unknown()`` declares in its
    "?" components: ``holes`` maps each one's (order, axis) to its
    canonical key, and is None for a generating function, whose "?" is W."""
    declared = unknown()
    if holes is None:
        return GeneratingFunction(candidate.k, candidate.n, declared["W"], candidate.energy)
    comps = dict(candidate.components)
    comps.update({at: declared[key] for at, key in holes.items()})
    return type(candidate)(candidate.k, candidate.n, comps)


def load(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def _format_value(v: float) -> str:
    return "%.17g" % v


def _dump_component(key: str, e: Expression, base) -> str:
    if e.has_placeholders:
        want = placeholder(key if key != "w" else "W", base.coordinates)
        if e == want:
            return "%s = ?" % key
        raise ModelError(
            "component %s mixes placeholders with structure and cannot be "
            "serialized" % key)
    return '%s = "%s"' % (key, e)


def _dump_components(sol, base):
    return [
        _dump_component(sol._key(j, axis), e, base)
        for (j, axis), e in sorted(sol.components.items())
    ]


def dumps(model: ModelFile) -> str:
    """Render a model file; loads(dumps(m)) == m."""
    base = JetSpace(model.n, model.k - 1)
    out = ["[model]", "name = %s" % model.name,
           "k = %d" % model.k, "n = %d" % model.n]
    for c in model.constants.values():
        bits = ["constant = %s" % c.name]
        if c.value is not None:
            bits.append(_format_value(c.value))
        if c.nonzero:
            bits.append("nonzero")
        out.append(" ".join(bits))
    out += ["", "[lagrangian]", 'L = "%s"' % model.lagrangian]
    for kind, table in (("section", model.sections), ("oneform", model.oneforms)):
        for name, sol in table.items():
            out += ["", "[%s %s]" % (kind, name)]
            out += _dump_components(sol, base)
    for name, gf in model.genfuncs.items():
        out += ["", "[genfunc %s]" % name]
        out.append(_dump_component("w", gf.w, base))
        if gf.energy is not None:
            out.append("energy = %s" % gf.energy)
    for name, fam in model.families.items():
        out += ["", "[family %s]" % name]
        out.append("params = %s" % ", ".join(fam.parameters))
        out += _dump_components(fam.solution, base)
        if fam.inverse_rules is not None:
            for p in fam.parameters:
                out.append('inverse.%s = "%s"' % (p, fam.inverse_rules[p]))
    for name, values in model.states.items():
        out += ["", "[state %s]" % name]
        out.append("values = %s" % ", ".join(_format_value(v) for v in values))
    return "\n".join(out) + "\n"

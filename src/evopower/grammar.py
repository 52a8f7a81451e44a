"""Context-free grammars and DSGE-style genotypes.

Grammar files contain one production rule per line::

    <layer>      ::= <dense> | <dropout>
    <dense>      ::= layer:dense [units,int,1,16,256] <activation>
    <activation> ::= act:relu | act:sigmoid

Angle-bracketed names are nonterminals, bare tokens are literals, and a
bracketed five-field group ``[name,kind,count,lo,hi]`` is a terminal block
that samples ``count`` numeric genes from ``[lo, hi]``.  ``kind`` is ``int``
(inclusive bounds) or ``float`` (uniform over ``[lo, hi)``).  The upper
bound may be the token ``x``, a placeholder that each walk resolves from
its ``bound`` argument.  ``#`` starts a comment; blank lines are ignored;
files may be LF or CRLF.

A genotype (:class:`GeneList`) stores, per nonterminal, the ordered
expansion indices consumed while deriving a sentence, plus the sampled
values of every terminal block encountered.  One walker, :func:`derive`,
follows those genes and collects literals and block values into an
attribute map: a ``key:value`` literal appends ``value`` under ``key``, a
bare literal is recorded under the name of the nonterminal whose
alternative produced it, and block values are recorded under the block
name.  A strict walk rejects any gene it cannot use; a resample walk
draws such genes afresh, which both derives new sentences and repairs
edited ones.

:data:`ATTRIBUTES` and :data:`SETS` are the grammar contract: what each
attribute the engine reads may hold, and what a derivation must set.
:func:`parse_grammar` refuses a grammar that breaks it, so the
derivations of a loaded grammar decode without further checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import DerivationError, GrammarError, InvalidGenotypeError

DYNAMIC_BOUND_TOKEN = "x"
DEFAULT_DEPTH_CAP = 50
LAYER_SYMBOL = "layer"
MACRO_SYMBOL = "learning"
MIDDLE_POINT_SYMBOL = "middle_point"


class Attribute(NamedTuple):
    """What an attribute may hold: one of ``names``, or a number ``parse`` reads in ``[lo, hi)``."""

    parse: type = str
    lo: float = -math.inf
    hi: float = math.inf
    names: tuple[str, ...] = ()
    noun: str = ""  # what the names name, for messages


# the grammar contract: what each attribute the engine reads may hold ...
ATTRIBUTES = {
    "layer": Attribute(names=("dense", "dropout"), noun="layer kind"),
    "act": Attribute(names=("relu", "sigmoid"), noun="activation"),
    "units": Attribute(int, lo=1),
    "rate": Attribute(float, lo=0.0, hi=1.0),
    "lr": Attribute(float),
    "batch": Attribute(int),
    "middle_point": Attribute(int, lo=0),
}
# ... and the attributes that every derivation of a rule, or of an
# alternative that holds a layer:<kind> tag, sets
SETS = {f"<{LAYER_SYMBOL}>": ("layer",), f"<{MACRO_SYMBOL}>": ("lr", "batch"),
        f"<{MIDDLE_POINT_SYMBOL}>": ("middle_point",),
        "layer:dense": ("units", "act"), "layer:dropout": ("rate",)}


@dataclass(frozen=True)
class NonTerminal:
    """Reference to another rule inside an alternative."""

    name: str


@dataclass(frozen=True)
class TerminalBlock:
    """Numeric gene block ``[name,kind,count,lo,hi]``.

    ``hi`` may be the dynamic token ``"x"``; a walk reads such a block's
    upper bound from its ``bound`` argument.
    """

    name: str
    kind: str  # "int" | "float"
    count: int
    lo: float
    hi: float | str

    @property
    def dynamic(self) -> bool:
        return self.hi == DYNAMIC_BOUND_TOKEN


Symbol = NonTerminal | TerminalBlock | str


@dataclass
class Grammar:
    """Production rules in file order: name -> list of alternatives."""

    rules: dict[str, list[list[Symbol]]]

    def alternatives(self, name: str) -> list[list[Symbol]]:
        try:
            return self.rules[name]
        except KeyError:
            raise GrammarError(f"unknown nonterminal <{name}>") from None


@dataclass
class GeneList:
    """DSGE genotype for one derivation.

    ``choices`` holds expansion indices per nonterminal in consumption
    order; ``values`` holds, per block name, the value group sampled at
    each encounter of that block.
    """

    choices: dict[str, list[int]] = field(default_factory=dict)
    values: dict[str, list[list[int | float]]] = field(default_factory=dict)

    def copy(self) -> "GeneList":
        return GeneList(
            {k: list(v) for k, v in self.choices.items()},
            {k: [list(g) for g in v] for k, v in self.values.items()},
        )

    def canonical(self) -> tuple:
        """Hashable representation; equal genotypes compare equal."""
        ch = tuple(sorted((k, tuple(v)) for k, v in self.choices.items()))
        va = tuple(sorted((k, tuple(tuple(g) for g in v)) for k, v in self.values.items()))
        return (ch, va)


def load_packaged_grammar(name: str) -> Grammar:
    """Load one of the grammars shipped with the package.

    ``name`` is the stem of a file under ``evopower/grammars/``, e.g.
    ``"default"`` or ``"dense_only"``.
    """
    ref = resources.files(__package__) / "grammars" / f"{name}.grammar"
    try:
        text = ref.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        available = sorted(
            p.name.removesuffix(".grammar")
            for p in (resources.files(__package__) / "grammars").iterdir()
            if p.name.endswith(".grammar")
        )
        raise GrammarError(f"no packaged grammar {name!r}; available: {', '.join(available)}") from None
    return parse_grammar(text)


def _parse_block(text: str, line_no: int) -> TerminalBlock:
    body = text[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 5:
        raise GrammarError(f"terminal block needs 5 fields, got {len(parts)}: [{body}]", line_no)
    name, kind, count_s, lo_s, hi_s = parts
    if not name:
        raise GrammarError("terminal block has empty name", line_no)
    if kind not in ("int", "float"):
        raise GrammarError(f"terminal block kind must be int or float, got {kind!r}", line_no)
    try:
        count = int(count_s)
    except ValueError:
        raise GrammarError(f"terminal block count must be an integer, got {count_s!r}", line_no) from None
    if count < 1:
        raise GrammarError(f"terminal block count must be >= 1, got {count}", line_no)

    def _num(s: str) -> float:
        if kind == "int":
            try:
                return int(s)
            except ValueError:
                raise GrammarError(f"int block bound must be an integer, got {s!r}", line_no) from None
        try:
            return float(s)
        except ValueError:
            raise GrammarError(f"block bound must be numeric, got {s!r}", line_no) from None

    lo = _num(lo_s)
    hi: float | str
    if hi_s == DYNAMIC_BOUND_TOKEN:
        hi = DYNAMIC_BOUND_TOKEN
    else:
        hi = _num(hi_s)
        if lo > hi:
            raise GrammarError(f"block bounds inverted: lo={lo} > hi={hi}", line_no)
    # numpy draws ints within int64, and floats a finite distance apart
    top = lo if hi == DYNAMIC_BOUND_TOKEN else hi
    if not (-2**63 <= lo and top < 2**63 if kind == "int" else math.isfinite(top - lo)):
        raise GrammarError(f"block [{name}] range [{lo_s}, {hi_s}] is beyond what numpy draws", line_no)
    return TerminalBlock(name, kind, count, lo, hi)


def _parse_symbol(token: str, line_no: int) -> Symbol:
    if token.startswith("<") and token.endswith(">"):
        name = token[1:-1].strip()
        if not name:
            raise GrammarError("empty nonterminal reference <>", line_no)
        return NonTerminal(name)
    if token.startswith("["):
        if not token.endswith("]"):
            raise GrammarError(f"unterminated terminal block: {token!r}", line_no)
        return _parse_block(token, line_no)
    if token.startswith(">") or token.endswith("<") or "]" in token:
        raise GrammarError(f"malformed token: {token!r}", line_no)
    return token


def _split_symbols(alt_text: str, line_no: int) -> list[Symbol]:
    # Tokens are whitespace-separated except inside [...] blocks, which may
    # carry spaces around their commas.
    tokens: list[str] = []
    cur = ""
    in_block = False
    for ch in alt_text:
        if ch == "[":
            if in_block:
                raise GrammarError("nested '[' in terminal block", line_no)
            in_block = True
            cur += ch
        elif ch == "]":
            if not in_block:
                raise GrammarError("unmatched ']'", line_no)
            in_block = False
            cur += ch
        elif ch.isspace() and not in_block:
            if cur:
                tokens.append(cur)
                cur = ""
        else:
            cur += ch
    if in_block:
        raise GrammarError("unterminated terminal block", line_no)
    if cur:
        tokens.append(cur)
    if not tokens:
        raise GrammarError("empty alternative", line_no)
    return [_parse_symbol(t, line_no) for t in tokens]


def parse_grammar(text: str) -> Grammar:
    """Parse a grammar file into a :class:`Grammar`.

    Raises :class:`GrammarError` (with a line number where possible) on
    syntax errors, duplicate rule names, references to undefined
    nonterminals, conflicting redefinitions of a block name, more than
    one rule containing the dynamic bound token, or a grammar that breaks
    the contract of :data:`ATTRIBUTES` and :data:`SETS`.
    """
    rules: dict[str, list[list[Symbol]]] = {}
    rule_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "::=" not in line:
            raise GrammarError(f"expected '<name> ::= ...', got {raw.strip()!r}", line_no)
        head, body = line.split("::=", 1)
        head = head.strip()
        if not (head.startswith("<") and head.endswith(">")) or len(head) < 3:
            raise GrammarError(f"rule name must be <name>, got {head!r}", line_no)
        name = head[1:-1].strip()
        if name in rules:
            raise GrammarError(f"duplicate rule <{name}> (first defined on line {rule_lines[name]})", line_no)
        alts = [_split_symbols(a, line_no) for a in body.split("|")]
        rules[name] = alts
        rule_lines[name] = line_no

    if not rules:
        raise GrammarError("grammar text contains no rules")
    grammar = Grammar(rules)
    _validate(grammar, rule_lines)
    return grammar


def _filled(sym: str | TerminalBlock, rule: str) -> tuple[str, str | None]:
    """The attribute a terminal of ``rule`` fills, as derive() files it, and a literal's value."""
    if isinstance(sym, TerminalBlock):
        return sym.name, None
    return tuple(sym.split(":", 1)) if ":" in sym else (rule, sym)


def _check_terminal(sym: str | TerminalBlock, rule: str, line: int | None) -> str:
    """The attribute a terminal fills; a GrammarError if it may not hold the terminal's values."""
    key, value = _filled(sym, rule)
    spec = ATTRIBUTES.get(key)
    if spec is None or value in spec.names:
        return key
    label = f"block [{key}]" if value is None else sym if ":" in sym else f"{sym} in <{rule}>"
    if spec.names:
        problem = (f"names no hidden {spec.noun}" if value is not None else
                   f"would name {'an' if spec.noun[0] in 'aeiou' else 'a'} {spec.noun} by numbers")
        raise GrammarError(f"{label} {problem}; use one of {', '.join(spec.names)}", line)
    kind = spec.parse.__name__
    if value is not None:
        try:
            ends = [spec.parse(value)]
        except ValueError:
            raise GrammarError(f"{label} sets {key} to {value!r}, which does not parse as {kind}", line) from None
    elif sym.kind != kind:
        raise GrammarError(f"{label} draws {sym.kind} values, but {key} is {kind}", line)
    else:  # derive() checks a dynamic upper bound when it draws
        ends = [sym.lo] if sym.dynamic else [sym.lo, sym.hi]
    for end in ends:
        if not spec.lo <= end < spec.hi:
            raise GrammarError(f"{label} can set {key} to {end!r}, outside [{spec.lo}, {spec.hi})", line)
    return key


def _validate(grammar: Grammar, rule_lines: dict[str, int]) -> None:
    blocks: dict[str, TerminalBlock] = {}
    dynamic_rules: set[str] = set()
    everything = {key for keys in SETS.values() for key in keys}
    for name, alts in grammar.rules.items():
        for alt in alts:
            for sym in alt:
                if not isinstance(sym, NonTerminal):
                    everything.add(_check_terminal(sym, name, rule_lines.get(name)))
                elif sym.name not in grammar.rules:
                    raise GrammarError(f"undefined nonterminal <{sym.name}>", rule_lines.get(name))
                if isinstance(sym, TerminalBlock):
                    prev = blocks.get(sym.name)
                    if prev is not None and prev != sym:
                        raise GrammarError(
                            f"block [{sym.name}] redefined with different parameters",
                            rule_lines.get(name),
                        )
                    blocks[sym.name] = sym
                    if sym.dynamic:
                        dynamic_rules.add(name)
    if len(dynamic_rules) > 1:
        names = ", ".join(sorted(dynamic_rules))
        raise GrammarError(f"dynamic bound token '{DYNAMIC_BOUND_TOKEN}' appears in multiple rules: {names}")

    # what every finishing derivation sets: the union over an alternative's
    # symbols, the intersection over a rule's alternatives, narrowed from
    # every attribute to a fixed point; a rule that never finishes keeps
    # every attribute, so it constrains nothing
    def sets(rule: str, alt: list[Symbol]) -> set[str]:
        return set().union(*(always[s.name] if isinstance(s, NonTerminal) else {_filled(s, rule)[0]}
                             for s in alt))

    always = dict.fromkeys(grammar.rules, everything)
    while always != (narrowed := {name: set.intersection(*(sets(name, alt) for alt in alts))
                                  for name, alts in grammar.rules.items()}):
        always = narrowed
    for name, alts in grammar.rules.items():
        for alt in alts:
            got = sets(name, alt)
            for tag in (f"<{name}>", *(":".join(_filled(s, name)) for s in alt if isinstance(s, str))):
                missing = [key for key in SETS.get(tag, ()) if key not in got]
                if missing:
                    raise GrammarError(f"a {tag} derivation sets no {missing[0]}", rule_lines.get(name))


def _sample_block(block: TerminalBlock, hi, rng: np.random.Generator) -> list[int | float]:
    if hi is None:
        raise DerivationError(f"block [{block.name}] has an unbound dynamic upper bound")
    if hi < block.lo:
        raise DerivationError(f"block [{block.name}] has empty range [{block.lo}, {hi}]")
    if block.kind == "int":
        return [int(rng.integers(int(block.lo), int(hi) + 1)) for _ in range(block.count)]
    return [float(rng.uniform(block.lo, hi)) for _ in range(block.count)]


def _group_fault(block: TerminalBlock, hi, groups: list, pos: int) -> str | None:
    """Why value group ``pos`` cannot fill ``block``, or None when it can."""
    if pos >= len(groups):
        return "values exhausted"
    group = groups[pos]
    if len(group) != block.count:
        return f"{len(group)} values where {block.count} are expected"
    if hi is None:
        return "value under an unbound dynamic upper bound"
    for v in group:
        if block.kind == "int" and type(v) is not int:
            return f"non-integer value {v!r}"
        if not block.lo <= v <= hi:
            return f"value {v} outside [{block.lo}, {hi}]"
    return None


def derive(
    grammar: Grammar,
    start: str,
    genes: GeneList,
    rng: np.random.Generator | None = None,
    bound: int | None = None,
) -> tuple[GeneList, dict[str, list]]:
    """Walk the derivation from ``start`` that ``genes`` records.

    Returns the genes the walk used, in derivation order, and the
    attribute map.  ``bound`` is the upper limit of the dynamic block.

    Without ``rng`` the walk is strict: a missing or out-of-range
    expansion index, a value group that is missing, of the wrong length,
    out of bounds or (in an ``int`` block) not an int, or a gene the walk
    never reaches raises :class:`InvalidGenotypeError`, so the genes it
    accepts are the genes it returns.  With ``rng`` each such gene is drawn
    afresh (alternatives uniformly), and genes the walk never reaches are
    dropped; ``derive(grammar, start, GeneList(), rng)`` is a random
    derivation.  Recursion deeper than :data:`DEFAULT_DEPTH_CAP`, or a
    dynamic block met without ``bound``, raises
    :class:`InvalidGenotypeError` in a strict walk and
    :class:`DerivationError` otherwise.
    """
    out = GeneList()
    attrs: dict[str, list] = {}
    cursors: dict[str, int] = {}
    value_cursors: dict[str, int] = {}

    def expand(name: str, depth: int) -> None:
        if depth > DEFAULT_DEPTH_CAP:
            error = InvalidGenotypeError if rng is None else DerivationError
            raise error(f"expansion of <{name}> exceeded depth cap {DEFAULT_DEPTH_CAP}")
        alts = grammar.alternatives(name)
        pos = cursors.get(name, 0)
        cursors[name] = pos + 1
        stored = genes.choices.get(name, ())
        if pos < len(stored) and 0 <= stored[pos] < len(alts):
            idx = stored[pos]
        elif rng is not None:
            idx = int(rng.integers(0, len(alts)))
        elif pos >= len(stored):
            raise InvalidGenotypeError(f"genes exhausted for <{name}> (needed index {pos})")
        else:
            raise InvalidGenotypeError(
                f"expansion index {stored[pos]} out of range for <{name}> with {len(alts)} alternatives"
            )
        out.choices.setdefault(name, []).append(idx)
        for sym in alts[idx]:
            if isinstance(sym, NonTerminal):
                expand(sym.name, depth + 1)
            elif isinstance(sym, TerminalBlock):
                hi = bound if sym.dynamic else sym.hi
                vpos = value_cursors.get(sym.name, 0)
                value_cursors[sym.name] = vpos + 1
                groups = genes.values.get(sym.name, ())
                fault = _group_fault(sym, hi, groups, vpos)
                if fault is None:
                    group = list(groups[vpos])
                elif rng is None:
                    raise InvalidGenotypeError(f"{fault} for block [{sym.name}]")
                else:
                    group = _sample_block(sym, hi, rng)
                out.values.setdefault(sym.name, []).append(group)
                attrs.setdefault(sym.name, []).extend(group)
            elif ":" in sym:
                key, val = sym.split(":", 1)
                attrs.setdefault(key, []).append(val)
            else:
                attrs.setdefault(name, []).append(sym)

    expand(start, 0)
    # a strict walk copies every gene it reads, so its genes differ from
    # the input only where the input holds genes the walk never reached,
    # which would give one sentence two genotypes
    if rng is None and (out.choices != genes.choices or out.values != genes.values):
        for kind, given, used in (("choices", genes.choices, out.choices),
                                  ("value groups", genes.values, out.values)):
            for name, stored in given.items():
                if name not in used or len(used[name]) != len(stored):
                    raise InvalidGenotypeError(
                        f"unused {kind} for {name!r}: {len(stored)} given, "
                        f"{len(used.get(name, ()))} walked"
                    )
    return out, attrs

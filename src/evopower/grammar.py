"""Context-free grammars and DSGE-style genotypes.

Grammar files contain one production rule per line::

    <layer>      ::= <dense> | <dropout>
    <dense>      ::= layer:dense [units,int,1,16,256] <activation>
    <activation> ::= act:relu | act:sigmoid

Angle-bracketed names are nonterminals, bare tokens are literals, and a
bracketed five-field group ``[name,kind,count,lo,hi]`` is a terminal block
that samples ``count`` numeric genes from ``[lo, hi]``.  ``kind`` is ``int``
(inclusive bounds) or ``float`` (uniform over ``[lo, hi)``).  The upper
bound may be the token ``x``, a placeholder resolved per individual through
:func:`bind_dynamic_bound`.  ``#`` starts a comment; blank lines are
ignored; files may be LF or CRLF.

A genotype (:class:`GeneList`) stores, per nonterminal, the ordered
expansion indices consumed while deriving a sentence, plus the sampled
values of every terminal block encountered.  Decoding replays those
choices and collects literals and block values into an attribute map:
a ``key:value`` literal appends ``value`` under ``key``, a bare literal
is recorded under the name of the nonterminal whose alternative produced
it, and block values are recorded under the block name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DerivationError, GrammarError, InvalidGenotypeError

DYNAMIC_BOUND_TOKEN = "x"
DEFAULT_DEPTH_CAP = 50


@dataclass(frozen=True)
class NonTerminal:
    """Reference to another rule inside an alternative."""

    name: str


@dataclass(frozen=True)
class TerminalBlock:
    """Numeric gene block ``[name,kind,count,lo,hi]``.

    ``hi`` may be the dynamic token ``"x"``; such a block cannot be
    sampled until the grammar is bound via :func:`bind_dynamic_bound`.
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

    def blocks(self) -> dict[str, TerminalBlock]:
        """All terminal blocks keyed by block name."""
        out: dict[str, TerminalBlock] = {}
        for alts in self.rules.values():
            for alt in alts:
                for sym in alt:
                    if isinstance(sym, TerminalBlock):
                        out[sym.name] = sym
        return out

    def has_dynamic_bound(self) -> bool:
        return any(b.dynamic for b in self.blocks().values())


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


@dataclass
class Decoded:
    """Result of :func:`decode`: attribute map plus consumption counts."""

    attrs: dict[str, list]
    consumed_choices: dict[str, int]
    consumed_values: dict[str, int]


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
    nonterminals, conflicting redefinitions of a block name, or more than
    one rule containing the dynamic bound token.
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


def _validate(grammar: Grammar, rule_lines: dict[str, int]) -> None:
    blocks: dict[str, TerminalBlock] = {}
    dynamic_rules: set[str] = set()
    for name, alts in grammar.rules.items():
        for alt in alts:
            for sym in alt:
                if isinstance(sym, NonTerminal) and sym.name not in grammar.rules:
                    raise GrammarError(
                        f"undefined nonterminal <{sym.name}>", rule_lines.get(name)
                    )
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


def bind_dynamic_bound(grammar: Grammar, value: int) -> Grammar:
    """Return a grammar in which every dynamic upper bound reads as ``value``.

    The input grammar is left untouched; grammars without a dynamic block
    pass through as an equivalent copy.
    """
    if value < 0:
        raise ValueError(f"dynamic bound must be >= 0, got {value}")
    if not grammar.has_dynamic_bound():
        return Grammar({n: [list(a) for a in alts] for n, alts in grammar.rules.items()})
    rules: dict[str, list[list[Symbol]]] = {}
    for name, alts in grammar.rules.items():
        new_alts = []
        for alt in alts:
            new_alt: list[Symbol] = []
            for sym in alt:
                if isinstance(sym, TerminalBlock) and sym.dynamic:
                    bound = int(value) if sym.kind == "int" else float(value)
                    sym = TerminalBlock(sym.name, sym.kind, sym.count, sym.lo, bound)
                new_alt.append(sym)
            new_alts.append(new_alt)
        rules[name] = new_alts
    return Grammar(rules)


def _sample_block(block: TerminalBlock, rng: np.random.Generator) -> list[int | float]:
    if block.dynamic:
        raise DerivationError(f"block [{block.name}] has an unbound dynamic upper bound")
    if block.hi < block.lo:
        raise DerivationError(f"block [{block.name}] has empty range [{block.lo}, {block.hi}]")
    if block.kind == "int":
        return [int(rng.integers(int(block.lo), int(block.hi) + 1)) for _ in range(block.count)]
    return [float(rng.uniform(block.lo, block.hi)) for _ in range(block.count)]


def random_derivation(
    grammar: Grammar,
    start: str,
    rng: np.random.Generator,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> GeneList:
    """Derive a random sentence from ``start``, recording genes DSGE-style.

    Expansion alternatives are chosen uniformly.  Recursion deeper than
    ``depth_cap`` raises :class:`DerivationError` rather than truncating.
    """
    genes = GeneList()
    alts_of = grammar.alternatives  # raises on unknown start

    def expand(name: str, depth: int) -> None:
        if depth > depth_cap:
            raise DerivationError(
                f"expansion of <{name}> exceeded depth cap {depth_cap}; grammar may be non-terminating"
            )
        alts = alts_of(name)
        idx = int(rng.integers(0, len(alts)))
        genes.choices.setdefault(name, []).append(idx)
        for sym in alts[idx]:
            if isinstance(sym, NonTerminal):
                expand(sym.name, depth + 1)
            elif isinstance(sym, TerminalBlock):
                genes.values.setdefault(sym.name, []).append(_sample_block(sym, rng))

    expand(start, 0)
    return genes


def decode(grammar: Grammar, start: str, genes: GeneList) -> Decoded:
    """Replay ``genes`` from ``start`` and collect the attribute map.

    Pure function of its inputs.  Raises :class:`InvalidGenotypeError` on
    gene exhaustion, out-of-range expansion indices, or block values
    outside their declared bounds.
    """
    attrs: dict[str, list] = {}
    cursors: dict[str, int] = {}
    value_cursors: dict[str, int] = {}

    def expand(name: str) -> None:
        alts = grammar.alternatives(name)
        pos = cursors.get(name, 0)
        stored = genes.choices.get(name, [])
        if pos >= len(stored):
            raise InvalidGenotypeError(f"genes exhausted for <{name}> (needed index {pos})")
        idx = stored[pos]
        cursors[name] = pos + 1
        if not 0 <= idx < len(alts):
            raise InvalidGenotypeError(
                f"expansion index {idx} out of range for <{name}> with {len(alts)} alternatives"
            )
        for sym in alts[idx]:
            if isinstance(sym, NonTerminal):
                expand(sym.name)
            elif isinstance(sym, TerminalBlock):
                vpos = value_cursors.get(sym.name, 0)
                groups = genes.values.get(sym.name, [])
                if vpos >= len(groups):
                    raise InvalidGenotypeError(f"values exhausted for block [{sym.name}]")
                group = groups[vpos]
                value_cursors[sym.name] = vpos + 1
                if len(group) != sym.count:
                    raise InvalidGenotypeError(
                        f"block [{sym.name}] expects {sym.count} values, got {len(group)}"
                    )
                if not sym.dynamic:
                    for v in group:
                        if not (sym.lo <= v <= sym.hi):
                            raise InvalidGenotypeError(
                                f"value {v} outside [{sym.lo}, {sym.hi}] for block [{sym.name}]"
                            )
                attrs.setdefault(sym.name, []).extend(group)
            else:
                if ":" in sym:
                    key, val = sym.split(":", 1)
                    attrs.setdefault(key, []).append(val)
                else:
                    attrs.setdefault(name, []).append(sym)

    expand(start)
    return Decoded(attrs, dict(cursors), dict(value_cursors))


def repair(
    grammar: Grammar,
    start: str,
    genes: GeneList,
    rng: np.random.Generator,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> GeneList:
    """Re-derive from ``start`` reusing ``genes`` where possible.

    Out-of-range indices are resampled, missing genes are drawn fresh, and
    trailing unconsumed genes are dropped.  Used after point mutations so a
    perturbed genotype always decodes.
    """
    out = GeneList()
    cursors: dict[str, int] = {}
    value_cursors: dict[str, int] = {}

    def expand(name: str, depth: int) -> None:
        if depth > depth_cap:
            raise DerivationError(f"repair of <{name}> exceeded depth cap {depth_cap}")
        alts = grammar.alternatives(name)
        pos = cursors.get(name, 0)
        stored = genes.choices.get(name, [])
        if pos < len(stored) and 0 <= stored[pos] < len(alts):
            idx = stored[pos]
        else:
            idx = int(rng.integers(0, len(alts)))
        cursors[name] = pos + 1
        out.choices.setdefault(name, []).append(idx)
        for sym in alts[idx]:
            if isinstance(sym, NonTerminal):
                expand(sym.name, depth + 1)
            elif isinstance(sym, TerminalBlock):
                vpos = value_cursors.get(sym.name, 0)
                groups = genes.values.get(sym.name, [])
                if (
                    vpos < len(groups)
                    and len(groups[vpos]) == sym.count
                    and not sym.dynamic
                    and all(sym.lo <= v <= sym.hi for v in groups[vpos])
                ):
                    group = list(groups[vpos])
                else:
                    group = _sample_block(sym, rng)
                value_cursors[sym.name] = vpos + 1
                out.values.setdefault(sym.name, []).append(group)

    expand(start, 0)
    return out

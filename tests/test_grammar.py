import dataclasses
import json

import numpy as np
import pytest

from evopower.errors import DerivationError, GrammarError, InvalidGenotypeError
from evopower.genome import load_typed
from evopower.grammar import (
    GeneList,
    NonTerminal,
    TerminalBlock,
    bind_dynamic_bound,
    decode,
    load_packaged_grammar,
    parse_grammar,
    random_derivation,
    repair,
)

SMALL = """
# toy grammar
<layer>      ::= <dense> | <dropout>
<dense>      ::= layer:dense [units,int,1,16,256] <activation>
<activation> ::= act:relu | act:sigmoid
<dropout>    ::= layer:dropout [rate,float,1,0.1,0.5]
"""

DYNAMIC = "<middle_point> ::= [middle_point,int,1,0,x]\n"


def test_parse_shapes():
    g = parse_grammar(SMALL)
    assert set(g.rules) == {"layer", "dense", "activation", "dropout"}
    assert len(g.rules["layer"]) == 2
    assert g.rules["layer"][0] == [NonTerminal("dense")]
    dense = g.rules["dense"][0]
    assert dense[0] == "layer:dense"
    assert dense[1] == TerminalBlock("units", "int", 1, 16, 256)
    assert dense[2] == NonTerminal("activation")


def test_parse_crlf_and_comments():
    text = "<a> ::= x | y\r\n# comment\r\n<b> ::= <a> z  # trailing\r\n"
    g = parse_grammar(text)
    assert set(g.rules) == {"a", "b"}
    assert g.rules["b"][0] == [NonTerminal("a"), "z"]


def test_parse_rejects_duplicate_rule():
    with pytest.raises(GrammarError, match="duplicate"):
        parse_grammar("<a> ::= x\n<a> ::= y\n")


def test_parse_rejects_undefined_nonterminal():
    with pytest.raises(GrammarError, match="undefined nonterminal <missing>"):
        parse_grammar("<a> ::= <missing>\n")


def test_parse_rejects_missing_arrow():
    with pytest.raises(GrammarError, match="line 1"):
        parse_grammar("<a> = x\n")


def test_parse_error_carries_line_number():
    with pytest.raises(GrammarError, match="line 3"):
        parse_grammar("<a> ::= x\n\n<b> ::= [bad,int,1,5]\n")


def test_parse_rejects_bad_blocks():
    for body in (
        "[u,int,1,5]",          # 4 fields
        "[u,str,1,0,1]",        # bad kind
        "[u,int,0,0,1]",        # count < 1
        "[u,int,1,5,2]",        # inverted bounds
        "[u,int,1,a,b]",        # non-numeric
        "[u,int,1,0,1",         # unterminated
    ):
        with pytest.raises(GrammarError):
            parse_grammar(f"<a> ::= {body}\n")


def test_parse_rejects_conflicting_block_redefinition():
    text = "<a> ::= [u,int,1,0,5]\n<b> ::= [u,int,1,0,9]\n"
    with pytest.raises(GrammarError, match="redefined"):
        parse_grammar(text)
    # identical re-use of a block name is fine
    parse_grammar("<a> ::= [u,int,1,0,5]\n<b> ::= [u,int,1,0,5]\n")


def test_parse_rejects_two_dynamic_rules():
    text = "<a> ::= [m,int,1,0,x]\n<b> ::= [n,int,1,0,x]\n"
    with pytest.raises(GrammarError, match="multiple"):
        parse_grammar(text)


def test_parse_rejects_empty_text():
    with pytest.raises(GrammarError):
        parse_grammar("   \n# only a comment\n")


def test_dynamic_bound_binding():
    g = parse_grammar(DYNAMIC)
    assert g.has_dynamic_bound()
    bound = bind_dynamic_bound(g, 4)
    block = bound.blocks()["middle_point"]
    assert (block.lo, block.hi) == (0, 4)
    assert not bound.has_dynamic_bound()
    # original grammar untouched
    assert g.blocks()["middle_point"].dynamic

    tight = bind_dynamic_bound(g, 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        genes = random_derivation(tight, "middle_point", rng)
        assert genes.values["middle_point"] == [[0]]


def test_bind_on_static_grammar_is_identity_copy():
    g = parse_grammar(SMALL)
    h = bind_dynamic_bound(g, 7)
    assert h.rules == g.rules
    assert h.rules is not g.rules


def test_bind_rejects_negative():
    g = parse_grammar(DYNAMIC)
    with pytest.raises(ValueError):
        bind_dynamic_bound(g, -1)


def test_derivation_requires_bound_grammar():
    g = parse_grammar(DYNAMIC)
    with pytest.raises(DerivationError, match="unbound"):
        random_derivation(g, "middle_point", np.random.default_rng(0))


def test_alternative_choice_is_uniform():
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(42)
    n = 10_000
    relu = 0
    for _ in range(n):
        genes = random_derivation(g, "activation", rng)
        relu += genes.choices["activation"][0] == 0
    assert abs(relu / n - 0.5) < 0.02


def test_block_sampling_respects_bounds():
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(7)
    for _ in range(500):
        genes = random_derivation(g, "layer", rng)
        if "units" in genes.values:
            (u,) = genes.values["units"][0]
            assert isinstance(u, int) and 16 <= u <= 256
        if "rate" in genes.values:
            (r,) = genes.values["rate"][0]
            assert isinstance(r, float) and 0.1 <= r < 0.5


def test_int_block_bounds_inclusive():
    g = parse_grammar("<a> ::= [v,int,1,0,2]\n")
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(300):
        seen.add(random_derivation(g, "a", rng).values["v"][0][0])
    assert seen == {0, 1, 2}


def test_decode_round_trip_many():
    """Every random derivation must decode, consuming all of its genes."""
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        genes = random_derivation(g, "layer", rng)
        d = decode(g, "layer", genes)
        assert d.consumed_choices == {k: len(v) for k, v in genes.choices.items()}
        assert d.consumed_values == {k: len(v) for k, v in genes.values.items()}
        assert d.attrs["layer"][0] in ("dense", "dropout")
        if d.attrs["layer"][0] == "dense":
            assert d.attrs["act"][0] in ("relu", "sigmoid")
            assert 16 <= d.attrs["units"][0] <= 256


def test_decode_is_deterministic_replay():
    g = parse_grammar(SMALL)
    genes = random_derivation(g, "layer", np.random.default_rng(5))
    a = decode(g, "layer", genes)
    b = decode(g, "layer", genes)
    assert a.attrs == b.attrs


def test_decode_attribute_conventions():
    g = parse_grammar("<a> ::= tag:val bare [v,int,2,1,3]\n")
    genes = random_derivation(g, "a", np.random.default_rng(0))
    d = decode(g, "a", genes)
    assert d.attrs["tag"] == ["val"]
    assert d.attrs["a"] == ["bare"]
    assert len(d.attrs["v"]) == 2


def test_decode_rejects_bad_genotypes():
    g = parse_grammar(SMALL)
    with pytest.raises(InvalidGenotypeError, match="exhausted"):
        decode(g, "layer", GeneList())

    genes = GeneList(choices={"layer": [5]})
    with pytest.raises(InvalidGenotypeError, match="out of range"):
        decode(g, "layer", genes)

    genes = GeneList(
        choices={"layer": [0], "dense": [0], "activation": [0]},
        values={"units": [[9999]]},
    )
    with pytest.raises(InvalidGenotypeError, match="outside"):
        decode(g, "layer", genes)


def test_depth_cap():
    g = parse_grammar("<a> ::= <a>\n")
    with pytest.raises(DerivationError, match="depth cap"):
        random_derivation(g, "a", np.random.default_rng(0))


def test_repair_fixes_out_of_range_choice():
    g = parse_grammar(SMALL)
    genes = random_derivation(g, "layer", np.random.default_rng(1))
    genes.choices["layer"][0] = 99
    fixed = repair(g, "layer", genes, np.random.default_rng(2))
    decode(g, "layer", fixed)
    assert 0 <= fixed.choices["layer"][0] < 2


def test_repair_appends_missing_and_truncates_extra():
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(9)
    # force the dense branch but omit everything downstream
    genes = GeneList(choices={"layer": [0, 1, 1]})
    fixed = repair(g, "layer", genes, rng)
    assert fixed.choices["layer"] == [0]
    assert "dense" in fixed.choices and "units" in fixed.values
    decode(g, "layer", fixed)


def test_repair_preserves_valid_genes():
    g = parse_grammar(SMALL)
    genes = random_derivation(g, "layer", np.random.default_rng(13))
    fixed = repair(g, "layer", genes, np.random.default_rng(14))
    assert fixed.choices == genes.choices
    assert fixed.values == genes.values


def test_repair_resamples_out_of_bounds_value():
    g = parse_grammar(SMALL)
    genes = GeneList(
        choices={"layer": [0], "dense": [0], "activation": [1]},
        values={"units": [[100_000]]},
    )
    fixed = repair(g, "layer", genes, np.random.default_rng(4))
    (u,) = fixed.values["units"][0]
    assert 16 <= u <= 256


def test_genelist_copy_is_deep():
    genes = GeneList(choices={"a": [1]}, values={"v": [[2]]})
    dup = genes.copy()
    dup.choices["a"][0] = 9
    dup.values["v"][0][0] = 9
    assert genes.choices["a"] == [1]
    assert genes.values["v"] == [[2]]


def test_genelist_canonical_and_dict_round_trip():
    genes = GeneList(choices={"a": [1, 0]}, values={"v": [[2.5]]})
    same = GeneList(choices={"a": [1, 0]}, values={"v": [[2.5]]})
    other = GeneList(choices={"a": [0, 0]}, values={"v": [[2.5]]})
    assert genes.canonical() == same.canonical()
    assert genes.canonical() != other.canonical()
    back = load_typed(GeneList, json.loads(json.dumps(dataclasses.asdict(genes))))
    assert back == genes
    assert type(back.values["v"][0][0]) is float


def test_packaged_grammars_load():
    for name in ("default", "dense_only"):
        g = load_packaged_grammar(name)
        assert "layer" in g.rules
        assert "middle_point" in g.rules
        assert g.has_dynamic_bound()
    assert "dropout" not in load_packaged_grammar("dense_only").rules
    with pytest.raises(GrammarError, match="no packaged grammar"):
        load_packaged_grammar("nope")

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopower.errors import DerivationError, GrammarError, InvalidGenotypeError
from evopower.genome import load_typed
from evopower.grammar import (
    DEFAULT_DEPTH_CAP,
    GeneList,
    NonTerminal,
    TerminalBlock,
    derive,
    load_packaged_grammar,
    parse_grammar,
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


@pytest.mark.parametrize("activation", ["tanh", "softmax", "", "Relu"])
def test_parse_rejects_an_activation_no_hidden_layer_computes(activation):
    # softmax builds and then fails in training, tanh is not built at all
    def grammar(second):
        return ("<layer> ::= layer:dense [units,int,1,4,8] <activation>\n"
                f"<activation> ::= act:relu | act:{second}\n")

    with pytest.raises(GrammarError, match=f"line 2: act:{activation} names no hidden activation"):
        parse_grammar(grammar(activation))
    parse_grammar(grammar("sigmoid"))

    # a bare terminal of a rule <act> fills the activation too
    def bare(second):
        return ("<layer> ::= layer:dense [units,int,1,4,8] <act>\n"
                f"<act> ::= relu | {second}\n")

    if activation:
        with pytest.raises(GrammarError,
                           match=f"line 2: {activation} in <act> names no hidden activation"):
            parse_grammar(bare(activation))
    g = parse_grammar(bare("sigmoid"))
    assert derive(g, "layer", GeneList({"layer": [0], "act": [1]}, {"units": [[4]]}))[1] == {
        "layer": ["dense"], "units": [4], "act": ["sigmoid"]
    }
    # and a block [act] would fill it with numbers
    with pytest.raises(GrammarError, match=r"line 1: block \[act\] would name an activation"):
        parse_grammar("<layer> ::= layer:dense [units,int,1,4,8] [act,int,1,0,1]\n")


@pytest.mark.parametrize("rule, message", [
    ("<layer> ::= layer:conv", "layer:conv names no hidden layer kind; use one of dense, dropout"),
    ("<layer> ::= [layer,int,1,0,1]", r"block \[layer\] would name a layer kind by numbers"),
    ("<layer> ::= layer:dropout rate:1", "rate:1 can set rate to 1.0, outside \\[0.0, 1.0\\)"),
    ("<layer> ::= layer:dropout [rate,float,1,-0.5,0.5]", "can set rate to -0.5"),
    ("<layer> ::= layer:dropout [rate,int,1,0,0]", r"block \[rate\] draws int values, but rate is float"),
    ("<layer> ::= layer:dense [units,int,1,0,8] act:relu", "can set units to 0, outside"),
    ("<layer> ::= layer:dense [units,float,1,1,8] act:relu", "draws float values, but units is int"),
    ("<units> ::= 8 | many", "many in <units> sets units to 'many', which does not parse as int"),
    ("<learning> ::= lr:nan batch:8", "lr:nan can set lr to nan"),
    ("<learning> ::= lr:0.1 batch:1.5", "sets batch to '1.5', which does not parse as int"),
    ("<middle_point> ::= [middle_point,int,1,-1,x]", "can set middle_point to -1, outside"),
    ("<a> ::= [v,int,1,0,9223372036854775808]", "is beyond what numpy draws"),
    ("<a> ::= [v,float,1,-1e308,1e308]", "is beyond what numpy draws"),
    ("<a> ::= [v,float,1,inf,x]", "is beyond what numpy draws"),
])
def test_parse_refuses_a_value_the_contract_forbids(rule, message):
    with pytest.raises(GrammarError, match=f"line 1: .*{message}"):
        parse_grammar(rule + "\n")


def test_parse_requires_what_every_derivation_sets_through_recursive_rules():
    layer = "<layer> ::= layer:dense act:relu <units>\n"
    # a recursive rule settles: every finishing derivation of <units> sets units
    parse_grammar(layer + "<units> ::= units:4 | <units> | <more>\n<more> ::= <units> units:8\n")
    with pytest.raises(GrammarError, match="line 1: a layer:dense derivation sets no units"):
        parse_grammar(layer + "<units> ::= units:4 | <more>\n<more> ::= <units> | note:x\n")
    # a rule that never finishes constrains nothing; derive's depth cap stops it
    g = parse_grammar(layer + "<units> ::= <units>\n")
    with pytest.raises(DerivationError, match="depth cap"):
        derive(g, "layer", GeneList(), np.random.default_rng(0))
    # an attribute set outside the alternative that carries the tag does not count
    with pytest.raises(GrammarError, match="line 2: a layer:dense derivation sets no act"):
        parse_grammar("<layer> ::= <dense> act:relu\n<dense> ::= layer:dense units:4\n")
    with pytest.raises(GrammarError, match="line 1: a <learning> derivation sets no batch"):
        parse_grammar("<learning> ::= lr:0.1 batch:8 | lr:0.2\n")
    with pytest.raises(GrammarError, match="line 1: a <middle_point> derivation sets no middle_point"):
        parse_grammar("<middle_point> ::= a:1\n")
    with pytest.raises(GrammarError, match="line 1: a <layer> derivation sets no layer"):
        parse_grammar("<layer> ::= layer:dropout rate:0.5 | note:x\n")


def test_parse_rejects_empty_text():
    with pytest.raises(GrammarError):
        parse_grammar("   \n# only a comment\n")


def fresh(g, start, rng, bound=None):
    return derive(g, start, GeneList(), rng, bound)[0]


def test_dynamic_bound_binding():
    g = parse_grammar(DYNAMIC)
    rng = np.random.default_rng(0)
    seen = {fresh(g, "middle_point", rng, bound=4).values["middle_point"][0][0] for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
    # the grammar keeps its dynamic token; each walk reads its own bound
    assert g.rules["middle_point"][0][0].dynamic
    for _ in range(20):
        genes, attrs = derive(g, "middle_point", GeneList(), rng, bound=0)
        assert genes.values["middle_point"] == [[0]]
        assert attrs == {"middle_point": [0]}
    genes = GeneList({"middle_point": [0]}, {"middle_point": [[3]]})
    assert derive(g, "middle_point", genes, bound=3)[1] == {"middle_point": [3]}
    with pytest.raises(InvalidGenotypeError, match="outside"):
        derive(g, "middle_point", genes, bound=2)


def test_bound_on_static_grammar_changes_nothing():
    g = parse_grammar(SMALL)
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(50):
        assert derive(g, "layer", GeneList(), a, bound=7) == derive(g, "layer", GeneList(), b)
    assert a.random() == b.random()


def test_bind_rejects_negative():
    g = parse_grammar(DYNAMIC)
    with pytest.raises(DerivationError, match="empty range"):
        fresh(g, "middle_point", np.random.default_rng(0), bound=-1)


def test_derivation_requires_bound_grammar():
    g = parse_grammar(DYNAMIC)
    with pytest.raises(DerivationError, match="unbound"):
        fresh(g, "middle_point", np.random.default_rng(0))
    genes = GeneList({"middle_point": [0]}, {"middle_point": [[0]]})
    with pytest.raises(InvalidGenotypeError, match="unbound"):
        derive(g, "middle_point", genes)


def test_alternative_choice_is_uniform():
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(42)
    n = 10_000
    relu = 0
    for _ in range(n):
        genes = fresh(g, "activation", rng)
        relu += genes.choices["activation"][0] == 0
    assert abs(relu / n - 0.5) < 0.02


def test_block_sampling_respects_bounds():
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(7)
    for _ in range(500):
        genes = fresh(g, "layer", rng)
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
        seen.add(fresh(g, "a", rng).values["v"][0][0])
    assert seen == {0, 1, 2}


def test_decode_round_trip_many():
    """Every random derivation re-walks strictly to the same genes."""
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        genes = fresh(g, "layer", rng)
        walked, attrs = derive(g, "layer", genes)
        assert walked == genes
        assert attrs["layer"][0] in ("dense", "dropout")
        if attrs["layer"][0] == "dense":
            assert attrs["act"][0] in ("relu", "sigmoid")
            assert 16 <= attrs["units"][0] <= 256


def test_decode_is_deterministic_replay():
    g = parse_grammar(SMALL)
    genes = fresh(g, "layer", np.random.default_rng(5))
    assert derive(g, "layer", genes) == derive(g, "layer", genes)


def test_decode_attribute_conventions():
    g = parse_grammar("<a> ::= tag:val bare [v,int,2,1,3]\n")
    genes = fresh(g, "a", np.random.default_rng(0))
    attrs = derive(g, "a", genes)[1]
    assert attrs["tag"] == ["val"]
    assert attrs["a"] == ["bare"]
    assert len(attrs["v"]) == 2


def test_decode_rejects_bad_genotypes():
    g = parse_grammar(SMALL)
    with pytest.raises(InvalidGenotypeError, match="exhausted"):
        derive(g, "layer", GeneList())

    genes = GeneList(choices={"layer": [5]})
    with pytest.raises(InvalidGenotypeError, match="out of range"):
        derive(g, "layer", genes)

    genes = GeneList(
        choices={"layer": [0], "dense": [0], "activation": [0]},
        values={"units": [[9999]]},
    )
    with pytest.raises(InvalidGenotypeError, match="outside"):
        derive(g, "layer", genes)


def test_int_blocks_accept_only_ints():
    g = parse_grammar(SMALL)
    genes = GeneList(
        choices={"layer": [0], "dense": [0], "activation": [0]},
        values={"units": [[16.5]]},
    )
    with pytest.raises(InvalidGenotypeError, match="non-integer"):
        derive(g, "layer", genes)
    genes.values["units"] = [[16.0]]
    with pytest.raises(InvalidGenotypeError, match="non-integer"):
        derive(g, "layer", genes)
    # a resample walk redraws the value and keeps the choices
    fixed = derive(g, "layer", genes, np.random.default_rng(0))[0]
    (u,) = fixed.values["units"][0]
    assert type(u) is int and 16 <= u <= 256
    assert fixed.choices == genes.choices
    # float blocks keep accepting ints, as JSON writes 0.0 as 0
    g = parse_grammar("<a> ::= [r,float,1,0,1]\n")
    assert derive(g, "a", GeneList({"a": [0]}, {"r": [[0]]}))[1] == {"r": [0]}


def test_strict_walk_rejects_genes_it_never_reaches():
    # unreached genes would give one sentence a second genotype key
    g = parse_grammar(SMALL)
    genes = GeneList({"layer": [0], "dense": [0], "activation": [1]}, {"units": [[64]]})
    assert derive(g, "layer", genes)[0] == genes
    padded = {
        "choices for 'layer'": GeneList({**genes.choices, "layer": [0, 1]}, genes.values),
        "choices for 'dropout'": GeneList({**genes.choices, "dropout": []}, genes.values),
        "value groups for 'rate'": GeneList(genes.choices, {**genes.values, "rate": [[0.2]]}),
        "value groups for 'units'": GeneList(genes.choices, {"units": [[64], [32]]}),
    }
    for what, extra in padded.items():
        with pytest.raises(InvalidGenotypeError, match=f"unused {what}"):
            derive(g, "layer", extra)
        # a resample walk drops them instead
        assert derive(g, "layer", extra, np.random.default_rng(0))[0] == genes


def test_depth_cap():
    g = parse_grammar("<a> ::= <a>\n")
    with pytest.raises(DerivationError, match="depth cap"):
        fresh(g, "a", np.random.default_rng(0))


def test_strict_walk_obeys_depth_cap():
    g = parse_grammar("<a> ::= <a> | y\n")
    with pytest.raises(InvalidGenotypeError, match="depth cap"):
        derive(g, "a", GeneList({"a": [0] * 5000 + [1]}))
    # both walks accept the same depth and reject one level more
    deepest = GeneList({"a": [0] * DEFAULT_DEPTH_CAP + [1]})
    assert derive(g, "a", deepest)[0] == deepest
    assert derive(g, "a", deepest, np.random.default_rng(0))[0] == deepest
    too_deep = GeneList({"a": [0] * (DEFAULT_DEPTH_CAP + 1) + [1]})
    with pytest.raises(InvalidGenotypeError, match="depth cap"):
        derive(g, "a", too_deep)
    with pytest.raises(DerivationError, match="depth cap"):
        derive(g, "a", too_deep, np.random.default_rng(0))


def test_repair_fixes_out_of_range_choice():
    g = parse_grammar(SMALL)
    genes = fresh(g, "layer", np.random.default_rng(1))
    genes.choices["layer"][0] = 99
    fixed = derive(g, "layer", genes, np.random.default_rng(2))[0]
    derive(g, "layer", fixed)
    assert 0 <= fixed.choices["layer"][0] < 2


def test_repair_appends_missing_and_truncates_extra():
    g = parse_grammar(SMALL)
    rng = np.random.default_rng(9)
    # force the dense branch but omit everything downstream
    genes = GeneList(choices={"layer": [0, 1, 1]})
    fixed = derive(g, "layer", genes, rng)[0]
    assert fixed.choices["layer"] == [0]
    assert "dense" in fixed.choices and "units" in fixed.values
    derive(g, "layer", fixed)


def test_repair_preserves_valid_genes():
    g = parse_grammar(SMALL)
    genes = fresh(g, "layer", np.random.default_rng(13))
    fixed = derive(g, "layer", genes, np.random.default_rng(14))[0]
    assert fixed.choices == genes.choices
    assert fixed.values == genes.values


def test_repair_resamples_out_of_bounds_value():
    g = parse_grammar(SMALL)
    genes = GeneList(
        choices={"layer": [0], "dense": [0], "activation": [1]},
        values={"units": [[100_000]]},
    )
    fixed = derive(g, "layer", genes, np.random.default_rng(4))[0]
    (u,) = fixed.values["units"][0]
    assert 16 <= u <= 256


PACKAGED = [load_packaged_grammar("default"), load_packaged_grammar("dense_only")]


@st.composite
def walks(draw):
    """A packaged grammar, one of its start symbols, a seed and a bound."""
    g = draw(st.sampled_from(PACKAGED))
    return g, draw(st.sampled_from(sorted(g.rules))), draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 10))


@settings(max_examples=300, deadline=None)
@given(walks())
def test_fresh_walk_rewalks_strictly(walk):
    g, start, seed, bound = walk
    genes, attrs = derive(g, start, GeneList(), np.random.default_rng(seed), bound)
    assert derive(g, start, genes, bound=bound) == (genes, attrs)


@settings(max_examples=300, deadline=None)
@given(walks())
def test_resample_walk_of_valid_genes_draws_nothing(walk):
    g, start, seed, bound = walk
    genes, attrs = derive(g, start, GeneList(), np.random.default_rng(seed), bound)
    rng, untouched = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert derive(g, start, genes, rng, bound) == (genes, attrs)
    assert rng.random() == untouched.random()


RULES = sorted({n for g in PACKAGED for n in g.rules})
NUMBERS = st.integers(-3, 300) | st.floats(allow_nan=True, allow_infinity=True)
CHOICES = st.lists(st.integers(-1, 2), max_size=4)
GROUPS = st.lists(st.lists(NUMBERS, max_size=2), max_size=3)
# JSON payloads that load_typed accepts, over the packaged symbol and block names
PAYLOADS = st.fixed_dictionaries({
    "choices": st.fixed_dictionaries({n: CHOICES for n in RULES}),
    "values": st.fixed_dictionaries({n: GROUPS for n in ["units", "rate", "lr", "batch", "middle_point"]}),
})


@settings(max_examples=500, deadline=None)
@given(walks(), PAYLOADS, st.none() | st.integers(-2, 10))
def test_strict_walk_of_any_payload_raises_only_invalid_genotype(walk, payload, bound):
    g, start, _, _ = walk
    try:
        derive(g, start, load_typed(GeneList, payload), bound=bound)
    except InvalidGenotypeError:
        pass


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
        assert g.rules["middle_point"][0][0].dynamic
    assert "dropout" not in load_packaged_grammar("dense_only").rules
    with pytest.raises(GrammarError, match="no packaged grammar"):
        load_packaged_grammar("nope")

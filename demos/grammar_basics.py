"""
Grammar files, derivations, and the genotype they leave behind
==============================================================

A search space is a plain-text grammar.  Deriving from it records, per
nonterminal, which alternative was taken and which terminal values were
sampled; that record IS the genotype.  One walker, ``derive``, follows a
genotype: strictly, to decode it, or resampling what it cannot use, to
draw new genes and repair edited ones.
"""

import numpy as np

from evopower.grammar import GeneList, derive, load_packaged_grammar, parse_grammar

# a miniature layer grammar: one dense layer with a unit count and an
# activation choice, written exactly like the packaged files
text = """
<layer>      ::= layer:dense [units,int,1,16,256] <activation>
<activation> ::= act:relu | act:sigmoid
"""
g = parse_grammar(text)
print("nonterminals:", sorted(g.rules))

# a resample walk from an empty gene list draws every gene afresh
rng = np.random.default_rng(7)
genes, attrs = derive(g, "layer", GeneList(), rng)
print("expansion choices:", genes.choices)
print("sampled values:   ", genes.values)
print("attributes:       ", attrs)

# a strict walk (no rng) replays the genes and draws nothing
print("strict walk replays them:", derive(g, "layer", genes) == (genes, attrs))

# flip the activation choice and walk again with an rng; the untouched
# unit value survives because the walk reuses every gene it can
genes.choices["activation"][0] = 1 - genes.choices["activation"][0]
fixed, attrs = derive(g, "layer", genes, rng)
print("after the flip:   ", attrs)

# the packaged search space also carries a dynamic bound: the split
# point's upper limit depends on the individual's hidden layer count,
# so each walk is given it as ``bound``
full = load_packaged_grammar("default")
mp, attrs = derive(full, "middle_point", GeneList(), rng, bound=3)
print("split point drawn for 5 hidden layers:", attrs)

"""Exact even/odd chromatic polynomials of signed graphs.

Data model and operations for signed graphs (switching, vertex deletion,
threshold constructions), exact integer polynomial pairs (isolated and
one-sign dominating vertices peeled by the deletion formulae, negative-clique
partitions on complete graphs, the edge-subset expansion tallied by a
frontier edge DP on the rest) and colouring counts read off them,
closed-form join families with a machine-checked identity suite, switching
isomorphism and signature-class enumeration, and desk-scale verifiers for
the known tables and conjectures.
"""

__version__ = "0.1.0"

"""Shared defaults: dimension guards, the fixed seed for randomized suites,
and the names the command line offers as choices."""

DEFAULT_SEED = 1729

# Full graph materialization builds n! vertices; 10! is the desk-scale
# ceiling.  On a 2-vCPU Xeon, build_bn(9) takes about 0.8 s and the process
# peaks at 98 MB RSS; build_bprime(9) takes about 0.3 s and peaks at 41 MB
# (fresh interpreters, 15 MB at start, medians of 5).
GRAPH_GUARD = 10

# Exhaustive mesh search covers all (n-2)! lost-anchor sequences; its
# costliest splits (a = 0 or n - 2) walk (n-2)! orderings of one side.
ENUMERATION_GUARD = 11

# The state machine steps each distinct state (at most three per
# generation) once; generation 200 with its CSV trace takes about 0.4 s
# and 17 MB peak RSS on a 2-vCPU Xeon, so traces reach the table's limit.
GENERATION_GUARD = 200

# Bound table rows grow like ((n-1)!)^2 in digit count; one walk over the
# generations builds the table to 200 in about 0.02 s on a 2-vCPU Xeon.
TABLE_LIMIT = 200

# Kept here so that building the command line's parser loads no layer.
# `drawing` takes its policy names from here; tests check the split and
# suite names against `drawing` and `verify`.
POLICIES = ("fixed", "roundrobin", "random")
SEED_SPLITS = ("alternating", "all-23", "all-32")
SUITE_NAMES = ("lemma1", "lemma2", "lemma3", "lemma45", "planarity", "symmetry")

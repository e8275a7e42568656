"""Shared defaults: dimension guards and the fixed seed for randomized suites."""

DEFAULT_SEED = 1729

# Full graph materialization walks n! vertices; 10! is the desk-scale ceiling.
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

"""The name of the q-series backend, kept for bench/worker.py.

Only backend_name is left: round 1 of both sums is an exact integer sum
over mpmath tables in quantum_invariants (_direct_sum_f64,
_double_sum_f64). bench/worker.py reports this name among its machine
facts.
"""

backend_name = "python"

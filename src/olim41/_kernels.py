"""The name of the q-series backend, kept for bench/worker.py.

Only backend_name is left: the f64 pass of both sums lives in
quantum_invariants (_direct_sum_f64, _double_sum_f64), where it reads the
hi rows of the double-double tables. bench/worker.py reports this name
among its machine facts.
"""

backend_name = "python"

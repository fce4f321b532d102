"""End-to-end + per-layer performance ledger (see ``README.md`` here).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is the contract entry point named in the root ``BENCHMARK.json``;
``python -m benchmarks.e2e`` runs every workload and prints one report.
"""

"""Reserved for a bounded, ordered pool over the partition chunk loop.

Nothing here runs today: every scan is serial.  The module is kept because
the benchmark counts its lines (``src.lines._parallel`` in BENCHMARK.json),
``tests/test_bench_contract.py`` requires a module for every such metric,
and ROADMAP.md plans to put the partition chunk pool here.
"""

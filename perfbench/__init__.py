"""End-to-end benchmark of the reproduction: population days and the
paper pipeline, with a phase × layer ledger measured from outside.

See ``perfbench/README.md``; run ``python3 perfbench/run.py --help``.
"""

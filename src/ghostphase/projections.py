"""Empty: a seeded random basis is ``wht.OrthoMatrix(d, seed=s)``.

The module stays only because the benchmark's tracer (``perfbench/traced_cli.py``)
lists it among the package's layers; it goes once that list drops it.
"""

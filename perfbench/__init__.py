"""Closed-loop benchmark of the gdal_ray engine (run with ``python3 perfbench/run.py``)."""

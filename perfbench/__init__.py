"""End-to-end and per-layer benchmark of groupnb; run ``python3 perfbench/run.py``."""

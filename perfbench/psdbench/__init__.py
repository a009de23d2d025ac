"""psd benchmark support code (see perfbench/run.py)."""

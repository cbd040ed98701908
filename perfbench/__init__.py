"""Task-life benchmark for the live backends; entry point is ``run.py``."""

"""The served system's benchmark; entry point ``servebench/run.py``."""

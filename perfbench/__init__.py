"""The genseg benchmark: see NOTES.md and run.py."""

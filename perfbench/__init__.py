"""End-to-end and per-layer benchmark of the plbandit CLI (see README.md)."""

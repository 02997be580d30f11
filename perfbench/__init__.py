"""Repository benchmark for lanenas: see perfbench/README.md."""

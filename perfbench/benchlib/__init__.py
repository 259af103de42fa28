"""perfbench: the corun benchmark's Python side."""

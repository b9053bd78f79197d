"""Mission-to-behavior-tree compiler with finite-trace LTL checking."""

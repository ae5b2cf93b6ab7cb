"""Test-suite settings.

Property tests run from a fixed seed (derandomize) so every tier-1 run
draws the same examples, with no per-example deadline (the host's speed
varies) and a bounded example count to keep the suite's wall time fixed.
"""

from hypothesis import settings

settings.register_profile("divsym", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("divsym")

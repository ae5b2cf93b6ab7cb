"""divsym: crash reporting for diversified binaries, end to end.

A synthetic ARM-like program model is diversified (stack padding, NOP
insertion, function shuffling) by seeded decision processes; the crash
server reconstructs the exact diversified symbol file from the default
symbol file, an opportunity log and a small packed delta, then unwinds
minidumps into source-level stack traces that are identical across
diversified versions.
"""

# the kernels (divsym._speed) are pure Python; there is no build step
KERNEL_BACKEND = "python"
__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]

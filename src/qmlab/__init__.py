"""qmlab: a simulation lab for queue, pushdown and tracked-tape machines.

Library code imports from the submodules, e.g. ``from qmlab.machine import run``.
"""

__version__ = "0.1.0"

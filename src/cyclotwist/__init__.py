"""cyclotwist: exact arithmetic for small tensor-category invariants.

Modules by task:

* ``exactalg``    integer/GF(2) linear algebra, Smith normal forms
* ``fusion``      fusion rings, regular representations, determinant bounds
* ``cocycle``     3-cocycles on cyclic groups, cohomology classes
* ``obstruction`` existence criteria for cyclic actions on Cuntz algebras
* ``numring``     Z[2cos(2pi/p)] arithmetic and lattice-splitting certificates
* ``pimsner``     simplicity of Toeplitz/Cuntz-Pimsner algebras, block model
* ``cli``         command-line front end (`cyclotwist ...`)

The library modules are imported on first access (``cyclotwist.numring``,
``from cyclotwist import *``), so a CLI process compiles only the modules
its command runs.
"""

import importlib

__all__ = [
    "exactalg",
    "fusion",
    "cocycle",
    "obstruction",
    "numring",
    "pimsner",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        # importing the submodule binds it on the package, so this runs
        # once per module
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

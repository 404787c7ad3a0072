"""Cohomogeneity-one Einstein-Sasaki 5-metrics from invariant initial data.

Subpackages by concern:

- ``exterior``   wedge and derivative index tables of invariant forms
- ``structures`` coframe structures, hypo and Einstein-Sasaki residuals,
                 normal form
- ``evolution``  the general coframe flow and the three closed families
- ``geometry``   invariant metrics, the explicit coordinate chart,
                 finite-difference curvature verification
- ``moduli``     cubic-root arithmetic, rational family enumeration,
                 compactness classification, group diagrams
- ``boundary``   smooth-extension tests over special orbits
- ``cli``        command-line front end
"""

from esasaki import boundary, evolution, exterior, geometry, moduli, structures

__all__ = ["exterior", "structures", "evolution", "geometry", "moduli", "boundary"]
__version__ = "0.1.0"

"""Position-based VANET routing simulator and feasibility toolkit.

Implements directional (compass) greedy forwarding, location-aided
zone-restricted route discovery, and the directional-location-aided hybrid of
the two, together with a Poisson connectivity analysis of next-hop candidate
availability, a deterministic campaign simulator, and a CSV-emitting CLI.
The package exports what each module lists in its ``__all__``.
"""

from . import feasibility, geometry, netsim, routing, zones
from .feasibility import *
from .geometry import *
from .netsim import *
from .routing import *
from .zones import *

__version__ = "0.1.0"

__all__ = []
__all__ += feasibility.__all__
__all__ += geometry.__all__
__all__ += netsim.__all__
__all__ += routing.__all__
__all__ += zones.__all__

"""Area-level exploratory spatial statistics and regression.

The package walks polygon data from raw GeoJSON plus an attribute table
through contiguity weights, hot spot detection, collinearity-aware model
selection, spatial regression, and Ward grouping, with deterministic file
outputs at every step.
"""

from ._version import __version__
from . import cluster, hotspot, ingest, ols, pipeline, render, spatial_models, stats, weights
from .ingest import *
from .weights import *
from .stats import *
from .hotspot import *
from .ols import *
from .spatial_models import *
from .cluster import *
from .render import *
from .pipeline import *

__all__ = ["__version__"]
__all__ += ingest.__all__
__all__ += weights.__all__
__all__ += stats.__all__
__all__ += hotspot.__all__
__all__ += ols.__all__
__all__ += spatial_models.__all__
__all__ += cluster.__all__
__all__ += render.__all__
__all__ += pipeline.__all__

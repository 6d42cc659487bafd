"""Area-level exploratory spatial statistics and regression.

The package walks polygon data from raw GeoJSON plus an attribute table
through contiguity weights, hot spot detection, collinearity-aware model
selection, spatial regression, and Ward grouping, with deterministic file
outputs at every step.

Importing the package sets the process up for one short run.  Unless one
of the variables OpenBLAS reads for its thread count is set, it sets
``OPENBLAS_NUM_THREADS=1`` before numpy loads: the analysis's dense calls
are small, and idle pool workers spin on the same CPUs as the main thread.
After the imports it freezes the objects they created, so full cyclic
collections later in the run skip them.
"""

import gc
import os

# OpenBLAS takes its thread count from the first of these that is set, so a
# user's setting of any of them wins
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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

gc.freeze()

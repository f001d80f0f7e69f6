"""Connectivity of randomly subsampled graphs: closed-form lower bounds
on the probability that a random subgraph of a connected template (or a
union of several independent subgraphs) is connected, with exact
enumeration and Monte Carlo oracles for checking them.

The package exports each module's ``__all__`` and nothing else.
"""

from . import bounds, errors, graphs, montecarlo, spectral
from .bounds import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *graphs.__all__,
    *spectral.__all__,
    *bounds.__all__,
    *montecarlo.__all__,
]

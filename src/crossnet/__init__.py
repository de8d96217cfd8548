"""Cross-diffusion instability analysis and simulation on networks.

The package namespace is the concatenation of its modules' ``__all__``.
"""

from . import dynamics, errors, experiments, graphs, pde_bridge, rng, spectra, stability
from .dynamics import *
from .errors import *
from .experiments import *
from .graphs import *
from .pde_bridge import *
from .rng import *
from .spectra import *
from .stability import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += dynamics.__all__
__all__ += errors.__all__
__all__ += experiments.__all__
__all__ += graphs.__all__
__all__ += pde_bridge.__all__
__all__ += rng.__all__
__all__ += spectra.__all__
__all__ += stability.__all__

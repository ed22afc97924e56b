"""Optimal intervention control of a discrete-time absorbing chain.

The process evolves freely on internal states until it hits one of two
absorbing boundary states; an intervention then restarts it at an
internal state drawn from a controllable distribution, at a cost. The
package evaluates the long-run average income per boundary-to-boundary
cycle in closed form, finds the deterministic restart policy that
optimizes it, and verifies both against step-by-step simulation.
"""

from . import absorption, errors, model, optimizer, simulator, stationary
from .absorption import *  # noqa: F403 - each module's __all__ is its public surface
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .simulator import *  # noqa: F403
from .stationary import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(name for m in (absorption, errors, model, optimizer, simulator, stationary) for name in m.__all__)

"""Optimal personal-data disclosure under data-breach risk.

A customer who releases personal data gets better service terms (the
demand curve expands) but risks losing money if the data leaks.  This
package models that trade-off, solves for the surplus-maximising
exposure, and analyses how the optimum responds to prices, parameters
and provider security.
"""

__version__ = "0.1.0"

from . import errors, model, secure, sensitivity, solver
from .errors import *
from .model import *
from .secure import *
from .sensitivity import *
from .solver import *

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += model.__all__
__all__ += secure.__all__
__all__ += sensitivity.__all__
__all__ += solver.__all__

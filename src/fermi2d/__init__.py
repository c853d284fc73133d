"""fermi2d: multiscale RG toolkit for a two-dimensional Fermi liquid."""

from .config import ScaleParams, load_config
from .scales import (DispersionModel, Momentum, ScaleInterval, ScaleModel,
                     make_model, quadratic_model)

__all__ = [
    "DispersionModel", "Momentum", "ScaleInterval",
    "ScaleModel", "ScaleParams", "load_config", "make_model",
    "quadratic_model",
]

__version__ = "0.1.0"

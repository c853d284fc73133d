"""fermi2d: multiscale RG toolkit for a two-dimensional Fermi liquid.

The package imports nothing, so each subcommand loads only the modules on
its own path; import from the modules (fermi2d.config, fermi2d.scales, ...).
"""

__version__ = "0.1.0"

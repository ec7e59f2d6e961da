"""Fabrication QA and cryogenic characterization tools for surface-electrode ion traps.

The package is organized around the life cycle of a trap wafer:

* :mod:`trapqa.core` - ion species, RF drive parameters.
* :mod:`trapqa.dissipation` - lumped RF loss model for the trap drive.
* :mod:`trapqa.electrostatics` - gapless-plane trap fields, pseudopotential
  minima, secular frequencies, stray-field reconstruction.
* :mod:`trapqa.wafertest` - simulated needle-card electrical test of a chip.
* :mod:`trapqa.yieldmap` - wafer layout, yield statistics, spatial defect
  analytics and wafer-map rendering.
* :mod:`trapqa.thermometry` - on-chip resistance thermometry.
* :mod:`trapqa.heating` - sideband thermometry and heating-rate analysis.
* :mod:`trapqa.diagnosis` - ion-position based fault diagnosis.
* :mod:`trapqa.cli` - deterministic command line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

"""Field correlations, radiated power, and charge diffusion for a decaying dipole.

Subpackages are imported explicitly (``from advwave import atomdyn``); this
top-level module imports none of them, so each command loads only the modules
it uses.
"""

__version__ = "0.1.0"

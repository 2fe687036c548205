"""cayley-lab: exact growth, spectral and mixing diagnostics for finite Cayley graphs.

Import from the modules: ``cayleylab.groups``, ``growth``, ``spectral``,
``mixing``, ``nilprog``, ``zoo`` and ``cli``.
"""

__version__ = "0.1.0"

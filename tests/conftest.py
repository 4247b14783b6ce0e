"""Hypothesis settings profiles for the suite.

``no-shrink`` runs every phase but the shrink phase, so a drawn test that
fails reports its first failing example at once, unshrunk.
``tools/mutants.py`` runs the tests under it (``--hypothesis-profile
no-shrink``): a mutant that fails a drawn test then dies at that example,
not after a shrink that can outlast the probe's time-out.
"""

from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[phase for phase in Phase if phase is not Phase.shrink])

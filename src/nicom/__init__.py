"""Exact golden-ratio Beatty moment sums and mechanical identity verification.

Names are imported from the module that defines them, e.g.
``from nicom.verify_suite import verify_claim``; the package re-exports none.
"""

__version__ = "0.1.0"

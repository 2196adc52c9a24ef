"""Shared pytest setup: one fixed hypothesis profile for every run.

Property tests draw the same examples every time (derandomize), carry no
per-example deadline (the host's speed varies) and stop at a bounded number
of examples, so they give the same verdict on every run.
"""

from hypothesis import settings

settings.register_profile(
    "streamkm", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("streamkm")

"""Parsing English region descriptions into scene graphs with a customized
transition-based dependency parser, plus the alignment supervision, the
one-to-one tuple F metric, and F-score image retrieval built on top of it.

The library API lives in the submodules (`sgparse.model`, `sgparse.spice`,
...); this package re-exports nothing."""

__version__ = "0.1.0"

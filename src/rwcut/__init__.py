"""Random-walk MaxCut approximation suite with desk-scale exact oracles."""

__version__ = "0.1.0"

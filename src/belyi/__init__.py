"""Random oriented cubic graphs, the cusped hyperbolic surfaces they
glue, and certified Cheeger-constant upper bounds."""

__version__ = "0.1.0"

"""foldtrack: online GP-surrogate continuation of fold curves.

Track fold (limit-point) curves of a nonlinear experiment's response
surface by building local Gaussian-process surrogates and actively
selecting which measurements to take.  Simulated measurement back-ends
stand in for the physical experiment.
"""

__version__ = "0.1.0"

"""hullgap: a numerical laboratory for deficiency profiles of constrained convex hulls.

The package measures, on finite-dimensional normed spaces, how far points of
the unit ball of an n-tuple sup-norm space can sit from convex combinations
of at most m "near-averaging" tuples (tuples of norm at most alpha whose
block mean has norm exceeding 1 - eps), and mechanically verifies two
constructive certificate families that force these gaps to decay like 1/k.

Modules
-------
spaces        space descriptors, vectors, the compiled norm plans, sampling, grammar
lipmetric     finite pointed metric spaces, Lipschitz seminorms, extension
hullgeom      membership checks, hull distances, certified grid brackets
certificates  ring-family search and the two construct/verify pipelines
dkprofile     deficiency profiles over ranges of k
cli           batch command-line front end
"""

__version__ = "0.1.0"

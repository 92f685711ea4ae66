"""Regular simplicial search: derivative-free optimization with sharp
linear-interpolation error bounds.

The package splits into five layers:

* :mod:`rssm.simplex`       — regular-simplex geometry (construct, reflect,
  shrink, regularity checks).
* :mod:`rssm.interpolation` — affine interpolation on a simplex, the signed
  second-moment G matrix, sharp error bounds, worst-case quadratics and
  the mu sharpness certificates.
* :mod:`rssm.solver`        — the reflect/shrink search itself, with full
  per-iteration traces.  It needs only :mod:`rssm.simplex` and solves no
  linear system.
* :mod:`rssm.complexity`    — closed-form complexity constants, predicted
  iteration bounds, and post-hoc trace audits.
* :mod:`rssm.objectives` / :mod:`rssm.experiments` — certified test
  objectives and the epsilon-scaling harness.
"""

__version__ = "0.1.0"

"""qclab: a numerical laboratory for quasiconformal extremal maps.

Spiral and linear stretch families with closed-form Wirtinger derivatives,
convex distortion gauges, deterministic midpoint quadrature on annuli and
rectangles, mean-distortion functionals and deficits, Cauchy-Pompeiu
transforms, lemma audits, and epsilon-ladder stability experiments that
recover the sharp square-root stability exponent.

Each name lives in its own module and is imported from there, e.g.
``from qclab.maps import SpiralStretch``.  The package root holds only
``__version__`` and ``backend_name()``, the kernel lane.
"""

__version__ = "0.1.0"

from ._kernels import backend_name

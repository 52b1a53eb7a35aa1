"""Worst-case-optimal packing of circle sets into squares and non-acute triangles.

Any set of circles whose combined area is at most pi/(3 + 2*sqrt(2)) of a
square's area (about 53.90%), or at most a right/obtuse triangle's incircle
area, is packable; both bounds are tight. The packer realizes these bounds
constructively by greedily splitting the circle set in two and recursing into
corner-rounded triangular subcontainers ("hats"). An independent verifier
certifies every produced packing, and a smallest-container mode turns the
density guarantee into a constant-factor approximation.
"""

from .errors import (
    ConjugacyError,
    DocumentError,
    InvalidParameterError,
    MalformedTreeError,
    OverCapacityError,
    SplitPackError,
    UnsupportedContainerError,
)
from .geometry import (
    PHI_SQUARE,
    Circle,
    Point,
    Square,
    Triangle,
    critical_density,
)
from .splitting import (
    CircleSet,
    split,
    weighted_split,
)
from .packer import (
    PackRequest,
    PackStats,
    Packing,
    decide,
    min_container,
    pack,
    packable_area,
)
from .verifier import Check, CheckKind, VerificationReport, verify
from .documents import InstanceDocument, PackingDocument
from .svg import render_packing_svg

__version__ = "0.1.0"

__all__ = [
    "PHI_SQUARE",
    "Check",
    "CheckKind",
    "Circle",
    "CircleSet",
    "ConjugacyError",
    "DocumentError",
    "InstanceDocument",
    "InvalidParameterError",
    "MalformedTreeError",
    "OverCapacityError",
    "PackRequest",
    "PackStats",
    "Packing",
    "PackingDocument",
    "Point",
    "SplitPackError",
    "Square",
    "Triangle",
    "UnsupportedContainerError",
    "VerificationReport",
    "critical_density",
    "decide",
    "min_container",
    "pack",
    "packable_area",
    "render_packing_svg",
    "split",
    "verify",
    "weighted_split",
    "__version__",
]

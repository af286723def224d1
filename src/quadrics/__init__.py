"""Split quadrics as homogeneous spaces for odd special orthogonal groups.

Exact, enumeration-backed verification over small finite fields and the
rationals: split quadratic forms and reflections, the quadric
sum(x_i y_i) = z(1-z) in intrinsic and ambient coordinates, point counts,
orbit/stabilizer structure, constructive reflection transport, and the
spin-factor description of the quadric as rank-1 projections.
"""

from .errors import QuadricsError
from .fields import Field, FieldElement, is_prime_power
from .quadform import (
    GroupElement,
    SplitSpace,
    Vector,
    dickson,
    is_isometry,
    reflect,
    reflection_matrix,
    word_matrix,
)
from .quadric import (
    AmbientQuadricPoint,
    IntrinsicQuadricPoint,
    base_point,
    count_closed_form,
    count_recursive,
    enumerate_quadric,
    from_ambient,
    is_on_quadric,
    stratify,
    to_ambient,
)
from .action import (
    GroupContext,
    enumerate_group,
    enumerate_isometries,
    group_order,
    in_o_odd,
    in_so_odd,
    orbit,
    stabilizer,
    verify_homogeneous,
    verify_similitude_orbit,
)
from .transport import (
    TransportCertificate,
    quadric_transport,
    reflection_transport,
    transport_all,
)
from .spinfactor import SpinFactor, verify_projective_space

__version__ = "0.1.0"

__all__ = [
    "AmbientQuadricPoint",
    "Field",
    "FieldElement",
    "GroupContext",
    "GroupElement",
    "IntrinsicQuadricPoint",
    "QuadricsError",
    "SpinFactor",
    "SplitSpace",
    "TransportCertificate",
    "Vector",
    "base_point",
    "count_closed_form",
    "count_recursive",
    "dickson",
    "enumerate_group",
    "enumerate_isometries",
    "enumerate_quadric",
    "from_ambient",
    "group_order",
    "in_o_odd",
    "in_so_odd",
    "is_isometry",
    "is_on_quadric",
    "is_prime_power",
    "orbit",
    "quadric_transport",
    "reflect",
    "reflection_matrix",
    "reflection_transport",
    "stabilizer",
    "stratify",
    "to_ambient",
    "transport_all",
    "verify_homogeneous",
    "verify_projective_space",
    "verify_similitude_orbit",
    "word_matrix",
]

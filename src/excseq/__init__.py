"""Exact combinatorics of exceptional sequences and shifted clusters over
Dynkin quivers: counting formulas, the ordered-cluster <-> shifted-sequence
bijection, tropical duality and slope-vector mutation."""

from .bijection import (check_transport, m_exc_sequences, sequence_to_tuple,
                        tuple_to_sequence)
from .configs import (DualityFrame, HorizontalSubcat, MutationResult, SlopeVector,
                      duality_frame, exchange_graph, garside_configuration, g_vector_check,
                      mutate, order_cluster, slope_vectors)
from .counting import (IntPoly, count_closed_form, count_complete_exc_sequences,
                       fomin_reading_count, fomin_reading_poly,
                       m_count_identity_holds, m_sequence_poly, real_root_check,
                       rel_proj_poly)
from .dynkin import (CoxeterData, DynkinDiagram, Quiver, build_diagram,
                     build_quiver, delete_vertex, euler_matrix,
                     parse_type_tag, positive_roots)
from .errors import (ExcseqError, InputError, InternalConsistencyError,
                     UnsupportedFeatureError, VerificationError)
from .repengine import RepCategory, category
from .shiftcat import ShiftedObject, enumerate_clusters
from .wide import (ExcSequence, PairCase, WideSubcat, ambient, classify_pair,
                   marked_exc_sequences, perp, rel_proj_poly_enumerated, relative_projectives)

__version__ = "0.1.0"

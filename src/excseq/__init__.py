"""Exact combinatorics of exceptional sequences and shifted clusters over
Dynkin quivers: counting formulas, the ordered-cluster <-> shifted-sequence
bijection, tropical duality and slope-vector mutation."""

from .bijection import (check_transport, m_exc_sequences, sequence_to_tuple,
                        transport, transport_inverse, tuple_to_sequence)
from .configs import (DualityFrame, HorizontalSubcat, MutationResult, SlopeVector,
                      duality_frame, exchange_graph, exchange_matrix,
                      garside_configuration, g_vector_check, horizontal_subcat,
                      mutate, mutate_configuration, order_cluster, recover_cluster,
                      slope_vectors)
from .counting import (IntPoly, count_closed_form, count_complete_exc_sequences,
                       fomin_reading_count, fomin_reading_poly,
                       m_count_identity_holds, m_sequence_poly, real_root_check,
                       rel_proj_poly)
from .dynkin import (CoxeterData, DynkinDiagram, Quiver, build_diagram,
                     build_quiver, coxeter_data, delete_vertex, euler_matrix,
                     parse_type_tag, positive_roots)
from .errors import (ExcseqError, InputError, InternalConsistencyError,
                     UnsupportedFeatureError, VerificationError)
from .repengine import RepCategory, category
from .shiftcat import (ShiftedObject, compatible, enumerate_clusters,
                       ordered_tuples, shifted_objects)
from .wide import (ExcSequence, PairCase, WideSubcat, ambient, classify_pair,
                   complete_exc_sequences, is_exceptional_sequence,
                   is_relatively_projective, left_perp, mark_relative_projectives,
                   marked_exc_sequences, mutate_pair, mutate_pair_inverse, perp,
                   rel_proj_poly_enumerated, relative_projectives)

__version__ = "0.1.0"

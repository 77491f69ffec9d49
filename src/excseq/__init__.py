"""Exact combinatorics of exceptional sequences and shifted clusters over
Dynkin quivers: counting formulas, the ordered-cluster <-> shifted-sequence
bijection, tropical duality and slope-vector mutation.

Each public name loads its module on first use (PEP 562), so `import excseq`
runs no submodule, and `excseq.category(tag)` loads only what the category needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it exports
_EXPORTS = {
    "bijection": ("m_exc_sequences", "sequence_to_tuple", "tuple_to_sequence"),
    "configs": ("DualityFrame", "HorizontalSubcat", "MutationResult", "SlopeVector",
                "duality_frame", "exchange_graph", "garside_configuration", "g_vector_check",
                "mutate", "order_cluster"),
    "counting": ("IntPoly", "count_closed_form", "count_complete_exc_sequences",
                 "fomin_reading_count", "fomin_reading_poly", "m_count_identity_holds",
                 "m_sequence_poly", "real_root_check", "rel_proj_poly"),
    "dynkin": ("CoxeterData", "DynkinDiagram", "Quiver", "build_diagram", "build_quiver",
               "delete_vertex", "euler_matrix", "parse_type_tag", "positive_roots"),
    "errors": ("ExcseqError", "InputError", "InternalConsistencyError",
               "UnsupportedFeatureError", "VerificationError"),
    "repengine": ("RepCategory", "category"),
    "shiftcat": ("ShiftedObject", "enumerate_clusters"),
    "wide": ("ExcSequence", "PairCase", "WideSubcat", "ambient", "classify_pair",
             "marked_exc_sequences", "perp", "rel_proj_poly_enumerated", "relative_projectives"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that exports `name` and keep the value in this module."""
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

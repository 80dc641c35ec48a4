"""Exact-arithmetic toolkit for generalized-partition combinatorics,
classical and infinite-rank superalgebra characters, symplectic/orthogonal
Schur functions, and free-field Fock space verification."""

from .partitions import (
    FrobeniusData,
    FrobeniusError,
    GeneralizedPartition,
    Partition,
    bar_conjugate,
    from_frobenius,
    rank,
    split_signs,
    to_frobenius,
    transpose,
)
from .infmat import SuperMatrix, cocycle_alpha, preserves_form, super_bracket, supertrace, te_generator
from .symring import SymFunc, hook_schur, schur
from .laurentchars import (
    DecompositionError,
    GroupTag,
    LaurentPoly,
    char_group,
    decompose_character,
    elementary_laurent,
)
from .superschur import (
    etilde_series,
    so_hook,
    so_schur,
    so_skew,
    sp_hook,
    sp_schur,
    sp_skew,
    verify_identity,
)
from .hwclassify import (
    Weight,
    is_quasifinite,
    is_unitarizable,
    parse_weight,
    partition_from_weight,
    weight_from_partition,
)
from . import fock

__all__ = [name for name in dir() if not name.startswith("_")]

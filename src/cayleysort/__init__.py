"""Pattern-restricted stack machines on Cayley permutations.

Simulate stacks and pop-stacks that refuse to hold forbidden patterns, test
pattern containment (classical and mesh), encode runs as labeled Dyck paths,
and verify the machines' characterizations exhaustively at small lengths.
"""

from .core import (
    LIMIT_ENV_VAR,
    CayleyPerm,
    ResourceLimitError,
    Word,
    census_limit,
    fubini_numbers,
    generate_all,
    generation_limit,
    hat,
    is_weakly_increasing,
    normalize,
    reverse,
)
from .pattern import (
    MESH_W,
    MESH_Z,
    CayleyMeshPattern,
    avoids_all,
    contains,
    contains_mesh,
    downward_closure_violations,
    minimal_non_members,
    occurrences,
    subpatterns,
)
from .stack import (
    FLUSH_ALL,
    HARE,
    SINGLE,
    Machine,
    TORTOISE,
    SortTrace,
    StackConfig,
    decompose_11,
    fertility,
    hare_blocks,
    is_popstack_sortable,
    is_sigma_sortable,
    machine_output,
    run_popstack,
    run_stack,
    s_sigma,
    tortoise_blocks,
)
from .dyck import (
    LabeledDyckPath,
    down_labels,
    encode,
    heights,
    matched_pairs,
    returns_decomposition,
    reverse_path,
    up_labels,
    valleys,
)
from .census import (
    HARE_BASIS,
    TORTOISE_BASIS,
    ClassVerdict,
    SequenceReport,
    VerificationError,
    class_violations,
    classify_sigma,
    count_sortable,
    involution_violations,
    mesh21_violations,
    popstack_violations,
    sigma_panel,
    sort11_equinumerosity,
    sortable_predicate,
    tortoise_refined,
    verify_21_machine_mesh,
    verify_bijectivity,
    verify_class,
    verify_fubini,
    verify_involution,
    verify_popstack_characterization,
    verify_tortoise_count,
    verify_tortoise_refined,
    witness_non_class,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

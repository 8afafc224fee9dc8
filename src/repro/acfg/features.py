"""Block-level features — exactly the 12 attributes of the paper's Table I.

Ten are generated from the code sequence (constant counts and counts of
each instruction category) and two from the node structure (# offspring,
i.e. the out-degree, and # instructions in the vertex).
"""

from __future__ import annotations

import numpy as np

from repro.disasm.cfg import CFG
from repro.disasm.instruction import NUMERIC_OPERAND, STRING_OPERAND
from repro.disasm.isa import InstructionCategory, MNEMONIC_CATEGORIES

__all__ = ["FEATURE_NAMES", "NUM_FEATURES", "cfg_feature_matrix"]

#: Order matches Table I top-to-bottom.
FEATURE_NAMES: tuple[str, ...] = (
    "numeric_constants",
    "string_constants",
    "transfer_instructions",
    "call_instructions",
    "arithmetic_instructions",
    "compare_instructions",
    "mov_instructions",
    "termination_instructions",
    "data_declaration_instructions",
    "total_instructions",
    "offspring",
    "instructions_in_vertex",
)

NUM_FEATURES: int = len(FEATURE_NAMES)

#: Table I column of each counted instruction category.
_CATEGORY_COLUMNS: dict[InstructionCategory, int] = {
    InstructionCategory.TRANSFER: 2,
    InstructionCategory.CALL: 3,
    InstructionCategory.ARITHMETIC: 4,
    InstructionCategory.COMPARE: 5,
    InstructionCategory.MOV: 6,
    InstructionCategory.TERMINATION: 7,
    InstructionCategory.DATA_DECLARATION: 8,
}

#: Counts that feed no feature (OTHER mnemonics, non-constant operands)
#: land in this scratch column past the last feature.
_SCRATCH = NUM_FEATURES

_MNEMONIC_COLUMNS: dict[str, int] = {
    mnemonic: _CATEGORY_COLUMNS.get(category, _SCRATCH)
    for mnemonic, category in MNEMONIC_CATEGORIES.items()
}


def cfg_feature_matrix(cfg: CFG) -> np.ndarray:
    """The paper's ``X ∈ R^{N×d}``: one Table I row per block, in one pass.

    Each distinct operand string is classified as a numeric or string
    constant once per call, however many instructions repeat it.  An
    edge with an endpoint outside ``[0, n)`` raises ``ValueError``, as
    :meth:`CFG.adjacency_matrix` does.
    """
    n = cfg.node_count
    matrix = np.zeros((n, NUM_FEATURES), dtype=np.float64)
    # "# Offspring (The degree)": number of distinct successor blocks,
    # matching the nonzero entries of the adjacency row.
    out_degrees = np.zeros(n, dtype=int)
    successor_sets: dict[int, set[int]] = {}
    for source, target, _ in cfg.edges:
        if not (0 <= source < n and 0 <= target < n):
            raise ValueError(
                f"edge ({source} -> {target}) leaves the {n}-block graph"
            )
        successor_sets.setdefault(source, set()).add(target)
    for source, targets in successor_sets.items():
        out_degrees[source] = len(targets)
    operand_columns: dict[str, int] = {}
    for row, block in enumerate(cfg.blocks):
        counts = [0] * (NUM_FEATURES + 1)
        for instruction in block.instructions:
            counts[_MNEMONIC_COLUMNS[instruction.mnemonic]] += 1
            for operand in instruction.operands:
                if operand not in operand_columns:
                    operand_columns[operand] = (
                        0 if NUMERIC_OPERAND.match(operand)
                        else 1 if STRING_OPERAND.match(operand)
                        else _SCRATCH
                    )
                counts[operand_columns[operand]] += 1
        counts[9] = counts[11] = len(block.instructions)
        matrix[row] = counts[:NUM_FEATURES]
    matrix[:, 10] = out_degrees[[block.index for block in cfg.blocks]]
    return matrix

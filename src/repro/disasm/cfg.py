"""Control-flow-graph recovery: leader detection, blocks, typed edges.

Edge semantics follow Section II-A of the paper: the weighted adjacency
matrix ``A`` has ``A[i, j] = 1`` when code naturally flows from block i
to j or jumps there, ``A[i, j] = 2`` for a call, and 0 otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.disasm.instruction import Instruction
from repro.disasm.program import Program

__all__ = [
    "BasicBlock",
    "CFG",
    "CFGBuildError",
    "EdgeKind",
    "build_cfg",
    "find_leaders",
]


class CFGBuildError(ValueError):
    """A program's control flow cannot be recovered (dangling target)."""

    def __init__(self, name: str, label: str) -> None:
        super().__init__(
            f"cannot build CFG for {name!r}: jump/call target {label!r} "
            "is not a defined label"
        )
        self.program_name: str = name
        self.label: str = label


class EdgeKind(enum.Enum):
    """Edge types; ``weight`` gives the paper's adjacency value."""

    FALLTHROUGH = "fallthrough"
    JUMP = "jump"
    CALL = "call"

    @property
    def weight(self) -> int:
        return 2 if self is EdgeKind.CALL else 1


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line sequence of instructions."""

    index: int
    start: int  # index of first instruction in the program
    instructions: tuple[Instruction, ...]
    labels: tuple[str, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __str__(self) -> str:
        header = ", ".join(self.labels) if self.labels else f"block_{self.index}"
        body = "; ".join(str(i) for i in self.instructions)
        return f"<{header}: {body}>"


@dataclass
class CFG:
    """A recovered control flow graph.

    ``edges`` holds ``(source_block, target_block, kind)`` triples.
    """

    blocks: list[BasicBlock]
    edges: list[tuple[int, int, EdgeKind]]
    name: str = "program"

    @property
    def node_count(self) -> int:
        return len(self.blocks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_matrix(self) -> np.ndarray:
        """The paper's weighted adjacency: 1 fallthrough/jump, 2 call.

        Parallel edges of different kinds between the same pair keep the
        largest weight (a call dominates a fallthrough).  An edge with an
        endpoint outside ``[0, n)`` raises ``ValueError`` instead of
        indexing past (or, for a negative index, wrapping around) the
        matrix.
        """
        n = self.node_count
        matrix = np.zeros((n, n), dtype=np.int8)
        for source, target, kind in self.edges:
            if not (0 <= source < n and 0 <= target < n):
                raise ValueError(
                    f"edge ({source} -> {target}) leaves the {n}-block graph"
                )
            matrix[source, target] = max(matrix[source, target], kind.weight)
        return matrix

    def out_degree(self, block_index: int) -> int:
        """Number of distinct successor blocks (parallel edges collapse)."""
        return len({t for s, t, _ in self.edges if s == block_index})

    def successors(self, block_index: int) -> list[int]:
        return [t for s, t, _ in self.edges if s == block_index]

    def predecessors(self, block_index: int) -> list[int]:
        return [s for s, t, _ in self.edges if t == block_index]

    def to_networkx(self) -> nx.DiGraph:
        graph = nx.DiGraph(name=self.name)
        for block in self.blocks:
            graph.add_node(block.index, block=block)
        for source, target, kind in self.edges:
            graph.add_edge(source, target, kind=kind.name, weight=kind.weight)
        return graph


def find_leaders(program: Program) -> list[int]:
    """Instruction indices that start basic blocks.

    Public so the ``repro.staticcheck`` verifier can independently
    recompute leaders and diff them against a CFG's block starts.
    """
    leaders: set[int] = {0}
    leaders.update(i for i in program.labels.values() if i < len(program))
    for i, instruction in enumerate(program.instructions):
        splits_after = instruction.ends_block or (
            instruction.is_call and instruction.target is not None
        )
        if splits_after and i + 1 < len(program):
            leaders.add(i + 1)
    return sorted(leaders)


def build_cfg(program: Program) -> CFG:
    """Recover basic blocks and typed edges from a linear program."""
    if not program.instructions:
        return CFG([], [], program.name)

    leaders = find_leaders(program)
    boundaries = leaders + [len(program)]

    blocks: list[BasicBlock] = []
    start_to_block: dict[int, int] = {}
    for index, (start, stop) in enumerate(zip(boundaries[:-1], boundaries[1:])):
        block = BasicBlock(
            index=index,
            start=start,
            instructions=tuple(program.instructions[start:stop]),
            labels=tuple(sorted(program.label_at(start))),
        )
        blocks.append(block)
        start_to_block[start] = index

    def block_of_label(label: str) -> int:
        try:
            return start_to_block[program.labels[label]]
        except KeyError:
            raise CFGBuildError(program.name, label) from None

    edges: list[tuple[int, int, EdgeKind]] = []
    for block in blocks:
        terminator = block.terminator
        next_start = block.start + len(block.instructions)
        has_next = next_start in start_to_block

        if terminator.is_unconditional_jump:
            edges.append((block.index, block_of_label(terminator.target), EdgeKind.JUMP))
        elif terminator.is_conditional_jump:
            edges.append((block.index, block_of_label(terminator.target), EdgeKind.JUMP))
            if has_next:
                edges.append((block.index, start_to_block[next_start], EdgeKind.FALLTHROUGH))
        elif terminator.is_return:
            pass  # control leaves the function
        elif terminator.is_call and terminator.target is not None:
            edges.append((block.index, block_of_label(terminator.target), EdgeKind.CALL))
            if has_next:
                edges.append((block.index, start_to_block[next_start], EdgeKind.FALLTHROUGH))
        elif has_next:
            edges.append((block.index, start_to_block[next_start], EdgeKind.FALLTHROUGH))

    return CFG(blocks, edges, program.name)

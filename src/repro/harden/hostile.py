"""Factories for hostile corpus samples, used by tests and demos.

``inject_hostile`` splices degenerate-but-realistic samples into a
clean corpus at a given rate, simulating what an adversarial feed does
to a production ingestion pipeline.  Every kind here is caught by the
default :class:`~repro.harden.sanitize.GraphSanitizer` policy — fatal
kinds are quarantined, flag kinds are recorded — so a 10%-hostile run
completes end-to-end instead of crashing.
"""

from __future__ import annotations

import numpy as np

from repro.disasm.cfg import CFG, EdgeKind, build_cfg
from repro.disasm.parser import parse_program
from repro.disasm.program import Program
from repro.malgen.corpus import LabeledSample, block_motif_tags
from repro.malgen.families import FAMILIES

__all__ = ["HOSTILE_KINDS", "hostile_sample", "inject_hostile"]


def _sample_from_program(program: Program, cfg: CFG | None = None) -> LabeledSample:
    cfg = cfg if cfg is not None else build_cfg(program)
    return LabeledSample(
        program=program,
        cfg=cfg,
        family=FAMILIES[0],
        label=0,
        motif_spans=[],
        block_tags=block_motif_tags(cfg, []),
    )


def _empty(name: str) -> LabeledSample:
    """A program with no instructions at all → empty CFG."""
    return _sample_from_program(Program([], {}, name))


def _single_block(name: str) -> LabeledSample:
    """One straight-line block, no control flow."""
    program = parse_program("mov eax, 1\nadd eax, 2\nret", name=name)
    return _sample_from_program(program)


def _spin(name: str) -> LabeledSample:
    """A single block that jumps to itself forever (self-loop)."""
    program = parse_program("spin:\nnop\njmp spin", name=name)
    return _sample_from_program(program)


def _unreachable(name: str) -> LabeledSample:
    """Dead code after ``ret`` nobody jumps to → disconnected component."""
    text = "\n".join(
        [
            "mov eax, 1",
            "cmp eax, 0",
            "je out",
            "inc eax",
            "out:",
            "ret",
            "dead:",
            "mov ebx, 2",
            "ret",
        ]
    )
    return _sample_from_program(parse_program(text, name=name))


def _dangling_edge(name: str) -> LabeledSample:
    """A CFG whose edge list points at a block that does not exist.

    Models a corrupted disassembler export.  The sanitizer's endpoint
    range check records a fatal ``construction_error`` at the ``cfg``
    stage, which ingestion must quarantine rather than crash on.
    """
    program = parse_program("mov eax, 1\nret", name=name)
    cfg = build_cfg(program)
    broken = CFG(cfg.blocks, [(0, 99, EdgeKind.JUMP)], name)
    return _sample_from_program(program, broken)


#: kind -> (factory, fatal-under-default-policy?)
HOSTILE_KINDS = {
    "empty": (_empty, True),
    "single_block": (_single_block, True),
    "spin": (_spin, True),  # single block + self-loop
    "unreachable": (_unreachable, False),  # disconnected: flagged only
    "dangling_edge": (_dangling_edge, True),
}


def hostile_sample(kind: str, name: str | None = None) -> LabeledSample:
    """Build one hostile sample of the named kind."""
    try:
        factory, _ = HOSTILE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown hostile kind {kind!r}; choose from {sorted(HOSTILE_KINDS)}"
        ) from None
    return factory(name or f"hostile_{kind}")


def inject_hostile(
    corpus: list[LabeledSample],
    fraction: float = 0.1,
    seed: int = 0,
    kinds: tuple[str, ...] | None = None,
    fatal_only: bool = True,
) -> tuple[list[LabeledSample], list[str]]:
    """Splice hostile samples into a corpus at ``fraction`` of its size.

    Returns ``(corpus_with_hostiles, hostile_names)``; insertion
    positions and kinds are drawn deterministically from ``seed``.
    ``fatal_only`` restricts injection to kinds the default sanitizer
    policy quarantines, so the injected count equals the quarantined
    count in a default run.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if kinds is None:
        kinds = tuple(
            k for k, (_, fatal) in sorted(HOSTILE_KINDS.items())
            if fatal or not fatal_only
        )
    rng = np.random.default_rng(seed)
    count = int(round(fraction * len(corpus)))
    result = list(corpus)
    names: list[str] = []
    for i in range(count):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        sample = hostile_sample(kind, name=f"hostile_{kind}_{i}")
        position = int(rng.integers(0, len(result) + 1))
        result.insert(position, sample)
        names.append(sample.program.name)
    return result, names

"""The ``Instruction`` value type and its operand-level introspection."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.disasm.isa import (
    CONDITIONAL_JUMPS,
    InstructionCategory,
    UNCONDITIONAL_JUMPS,
    category_of,
    is_register,
)

__all__ = ["Instruction", "NUMERIC_OPERAND", "STRING_OPERAND"]

# Immediate operands: decimal (42, -7) or hex in masm style (0FFh, 87BDC1D7h)
# or 0x-prefixed.
NUMERIC_OPERAND = re.compile(r"^-?(?:\d+|0x[0-9a-fA-F]+|[0-9][0-9a-fA-F]*h)$")
STRING_OPERAND = re.compile(r"^(?:'[^']*'|\"[^\"]*\")$")
_MEMORY_RE = re.compile(r"^(?:\w+:)?\[.*\]$")


@dataclass(frozen=True)
class Instruction:
    """One assembly instruction: a mnemonic plus string operands.

    Operands follow common disassembler notation: registers (``eax``),
    immediates (``42``, ``0FFh``), memory (``[ebp+8]``, ``ds:[eax]``),
    labels (``loc_401000``), API symbols (``ds:CreateThread``), and
    string literals (``'cmd.exe'``).
    """

    mnemonic: str
    operands: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mnemonic", self.mnemonic.lower())
        # Validate eagerly: an unknown mnemonic is a generator bug.
        category_of(self.mnemonic)

    @property
    def category(self) -> InstructionCategory:
        return category_of(self.mnemonic)

    # ------------------------------------------------------------------
    # control-flow classification
    # ------------------------------------------------------------------
    @property
    def is_jump(self) -> bool:
        return self.mnemonic in CONDITIONAL_JUMPS or self.mnemonic in UNCONDITIONAL_JUMPS

    @property
    def is_conditional_jump(self) -> bool:
        return self.mnemonic in CONDITIONAL_JUMPS

    @property
    def is_unconditional_jump(self) -> bool:
        return self.mnemonic in UNCONDITIONAL_JUMPS

    @property
    def is_call(self) -> bool:
        return self.category is InstructionCategory.CALL

    @property
    def is_return(self) -> bool:
        return self.category is InstructionCategory.TERMINATION

    @property
    def ends_block(self) -> bool:
        """Whether control cannot simply continue past this instruction."""
        return self.is_jump or self.is_return

    @property
    def target(self) -> str | None:
        """The label this jump/call targets, if it targets a local label.

        Calls through API symbols (``ds:Sleep``) or registers have no
        local target and return ``None``.
        """
        if not (self.is_jump or self.is_call) or not self.operands:
            return None
        operand = self.operands[0]
        if is_register(operand) or _MEMORY_RE.match(operand) or ":" in operand:
            return None
        if operand.startswith("j_"):  # thunk to an imported symbol
            return None
        if NUMERIC_OPERAND.match(operand) or STRING_OPERAND.match(operand):
            return None
        return operand

    @property
    def api_symbol(self) -> str | None:
        """The Windows API symbol called, e.g. ``CreateThread``, if any."""
        if not self.is_call or not self.operands:
            return None
        operand = self.operands[0]
        if operand.startswith("ds:"):
            return operand[3:]
        if operand.startswith("j_"):
            return operand[2:]
        return None

    # ------------------------------------------------------------------
    # operand-level counts for Table I features
    # ------------------------------------------------------------------
    @property
    def numeric_constant_count(self) -> int:
        return sum(1 for op in self.operands if NUMERIC_OPERAND.match(op))

    @property
    def string_constant_count(self) -> int:
        return sum(1 for op in self.operands if STRING_OPERAND.match(op))

    # ------------------------------------------------------------------
    # register dataflow (used by the qualitative analysis)
    # ------------------------------------------------------------------
    @property
    def registers_read(self) -> frozenset[str]:
        found: set[str] = set()
        for operand in self.operands:
            for token in re.split(r"[\[\]+\-*,:\s]+", operand):
                if is_register(token):
                    found.add(token.lower())
        return frozenset(found)

    @property
    def writes_first_operand_register(self) -> bool:
        """True when the destination (first) operand is a bare register."""
        return bool(self.operands) and is_register(self.operands[0])

    @property
    def is_semantic_nop(self) -> bool:
        """NOP or an alias that provably changes nothing (``mov edx, edx``)."""
        if self.mnemonic == "nop":
            return True
        if self.mnemonic in {"mov", "xchg"} and len(self.operands) == 2:
            a, b = self.operands
            return is_register(a) and a.lower() == b.lower()
        return False

    def __str__(self) -> str:
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} {', '.join(self.operands)}"
